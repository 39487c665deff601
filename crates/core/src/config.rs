//! System-wide configuration.

use crate::error::CoreError;
use crate::scheduler::SchedulerPolicy;
use bees_energy::{Battery, EnergyModel, LinearScheme};
use bees_features::orb::OrbConfig;
use bees_features::pca::PcaSiftConfig;
use bees_features::similarity::SimilarityConfig;
use bees_image::blur;
use bees_net::{BandwidthTrace, FaultModel, RetryPolicy, SharedCellConfig, DEFAULT_STALL_LIMIT_S};
use bees_store::StorageConfig;
use bees_submodular::SsmmConfig;

/// Which index backend the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexBackend {
    /// Exact linear scan.
    Linear,
    /// Multi-index hashing acceleration (binary descriptors only).
    Mih,
}

/// Every tunable of the reproduction in one place.
///
/// The defaults mirror the paper where it gives numbers (EAC/EAU forms,
/// 3150 mAh battery, 0–512 Kbps WiFi, quality proportion 0.85) and are
/// calibrated to our measured ORB score distribution where it does not
/// (the EDR constants; see `DESIGN.md` §5).
#[derive(Debug, Clone)]
pub struct BeesConfig {
    /// ORB extractor settings (client and server must agree).
    pub orb: OrbConfig,
    /// PCA-SIFT settings (SmartEye's extractor).
    pub pca_sift: PcaSiftConfig,
    /// Seed of PCA-SIFT's deterministic projection basis.
    pub pca_basis_seed: u64,
    /// Similarity-scoring thresholds (Eq. 2 matching).
    pub similarity: SimilarityConfig,
    /// SSMM objective weights.
    pub ssmm: SsmmConfig,
    /// EAC: bitmap compression proportion vs `Ebat`.
    pub eac: LinearScheme,
    /// EDR: cross-batch similarity threshold vs `Ebat`.
    pub edr: LinearScheme,
    /// SSMM partition threshold `Tw` vs `Ebat` (the paper reuses EDR's
    /// form).
    pub tw: LinearScheme,
    /// EAU: resolution compression proportion vs `Ebat`.
    pub eau: LinearScheme,
    /// Codec quality of the photo files stored on the phone (what Direct
    /// Upload, SmartEye, and MRC transmit verbatim — the analogue of the
    /// paper's ~700 KB camera JPEGs).
    pub camera_quality: u8,
    /// Fixed quality-compression proportion (paper §III-C suggests 0.85).
    pub quality_proportion: f64,
    /// Fixed ORB similarity threshold used by MRC (no adaptation).
    pub fixed_threshold: f64,
    /// Fixed PCA-SIFT similarity threshold used by SmartEye; vector
    /// descriptors produce a different score distribution than binary ones,
    /// so the two thresholds are calibrated independently.
    pub fixed_threshold_pca: f64,
    /// Histogram-intersection threshold for the PhotoNet-like scheme's
    /// global-feature dedup (conservatively high: histograms overlap badly
    /// across scenes, which is the paper's argument for local features).
    pub histogram_threshold: f64,
    /// The battery every client starts with.
    pub battery: Battery,
    /// The energy cost model.
    pub energy: EnergyModel,
    /// Uplink/downlink bandwidth trace.
    pub trace: BandwidthTrace,
    /// Fault injection layered on the trace (disconnections, drops);
    /// defaults to [`FaultModel::none`], i.e. the perfectly reliable
    /// channel. Each client reseeds the model with its id so a fleet does
    /// not fail in lockstep.
    pub fault: FaultModel,
    /// Retry/backoff/chunking policy for the resumable transfer path.
    pub retry: RetryPolicy,
    /// Channel stall limit in seconds (must be finite and positive).
    pub stall_limit_s: f64,
    /// Server index backend.
    pub index_backend: IndexBackend,
    /// Number of index shards the server partitions images over (must be
    /// at least 1). With `n > 1` the chosen backend is wrapped in a
    /// `ShardedIndex`: ingest and queries fan out over the shards in
    /// parallel while results stay byte-identical to a single shard.
    pub server_shards: usize,
    /// Multi-probe radius of the MIH backend (0 or 1; MIH splits each
    /// 256-bit descriptor into 4 substrings and radius 1 also probes every
    /// single-bit neighbor of each substring).
    pub mih_probe_radius: u8,
    /// Whether BEES salvages uploads whose retry budget runs out: the
    /// confirmed chunk prefix of the progressive stream is decoded into a
    /// partial image and ingested, instead of the whole transfer being
    /// written off as waste. Disable to reproduce the pre-salvage ladder
    /// (full → thumbnail → defer).
    pub salvage_partials: bool,
    /// The shared uplink cell the fleet draws airtime from; defaults to
    /// disabled, i.e. the historical one-private-channel-per-device
    /// behavior.
    pub cell: SharedCellConfig,
    /// How the server ranks devices competing for cell airtime; only
    /// consulted when `cell.enabled` is set.
    pub scheduler: SchedulerPolicy,
    /// Storage-tier knobs: near-duplicate grouping threshold and the
    /// cold-recompression gates (age, group size, re-encode quality).
    pub storage: StorageConfig,
}

impl Default for BeesConfig {
    fn default() -> Self {
        BeesConfig {
            orb: OrbConfig::default(),
            pca_sift: PcaSiftConfig::default(),
            pca_basis_seed: 0xBEE5,
            similarity: SimilarityConfig::default(),
            ssmm: SsmmConfig::default(),
            eac: LinearScheme::eac(),
            // Calibrated from our measured distribution (similar pairs
            // score >= ~0.16, dissimilar <= ~0.11 on the synthetic
            // Kentucky set; see fig4_distribution): T in [0.12, 0.15], so
            // the floor still clears the dissimilar maximum.
            edr: LinearScheme::edr(0.12, 0.03),
            tw: LinearScheme::edr(0.12, 0.03),
            eau: LinearScheme::eau(),
            camera_quality: 90,
            quality_proportion: 0.85,
            fixed_threshold: 0.12,
            fixed_threshold_pca: 0.15,
            histogram_threshold: 0.85,
            battery: Battery::default(),
            energy: EnergyModel::default(),
            trace: BandwidthTrace::disaster_wifi(0xB335),
            fault: FaultModel::none(),
            retry: RetryPolicy::default(),
            stall_limit_s: DEFAULT_STALL_LIMIT_S,
            index_backend: IndexBackend::Linear,
            server_shards: 1,
            mih_probe_radius: 1,
            salvage_partials: true,
            cell: SharedCellConfig::default(),
            scheduler: SchedulerPolicy::default(),
            storage: StorageConfig::default(),
        }
    }
}

impl BeesConfig {
    /// Maps a quality-compression *proportion* (the paper's axis: the
    /// fraction of pixel information discarded) to the DCT codec's quality
    /// parameter in `1..=100`.
    pub fn quality_for_proportion(proportion: f64) -> u8 {
        let p = proportion.clamp(0.0, 0.99);
        ((1.0 - p) * 100.0).round().clamp(1.0, 100.0) as u8
    }

    /// The codec quality BEES uploads at (from `quality_proportion`).
    pub fn upload_quality(&self) -> u8 {
        Self::quality_for_proportion(self.quality_proportion)
    }

    /// Validates the network-robustness knobs (fault model, retry policy,
    /// stall limit), the adaptive schemes and the compression/threshold
    /// knobs. Called by [`crate::Client::try_new`] and
    /// [`crate::Server::try_new`] so an invalid configuration surfaces as a
    /// typed error instead of a panic deep in the simulation.
    ///
    /// # Examples
    ///
    /// ```
    /// use bees_core::BeesConfig;
    /// use bees_net::BandwidthTrace;
    ///
    /// let config = BeesConfig {
    ///     trace: BandwidthTrace::constant(256_000.0).unwrap(),
    ///     quality_proportion: 0.85,
    ///     ..BeesConfig::default()
    /// };
    /// config.validate().expect("knobs are in range");
    /// assert_eq!(config.upload_quality(), 15);
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> crate::Result<()> {
        self.fault
            .validate()
            .map_err(|e| CoreError::InvalidConfig {
                detail: format!("fault model: {e}"),
            })?;
        self.retry
            .validate()
            .map_err(|e| CoreError::InvalidConfig {
                detail: format!("retry policy: {e}"),
            })?;
        if !self.stall_limit_s.is_finite() || self.stall_limit_s <= 0.0 {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "stall_limit_s must be finite and positive, got {}",
                    self.stall_limit_s
                ),
            });
        }
        // `LinearScheme::value` clamps with `min` and `max`, which panics
        // when they are inverted or NaN.
        for (name, scheme) in [
            ("eac", &self.eac),
            ("edr", &self.edr),
            ("tw", &self.tw),
            ("eau", &self.eau),
        ] {
            scheme.validate().map_err(|rule| CoreError::InvalidConfig {
                detail: format!("{name}: {rule}, got {scheme:?}"),
            })?;
        }
        if self.camera_quality == 0 || self.camera_quality > 100 {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "camera_quality must be in 1..=100, got {}",
                    self.camera_quality
                ),
            });
        }
        if !self.quality_proportion.is_finite() || !(0.0..1.0).contains(&self.quality_proportion) {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "quality_proportion must be in [0, 1), got {}",
                    self.quality_proportion
                ),
            });
        }
        for (name, value) in [
            ("fixed_threshold", self.fixed_threshold),
            ("fixed_threshold_pca", self.fixed_threshold_pca),
            ("histogram_threshold", self.histogram_threshold),
        ] {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(CoreError::InvalidConfig {
                    detail: format!("{name} must be in [0, 1], got {value}"),
                });
            }
        }
        // SSMM's objective is a weighted sum, submodular only for
        // non-negative weights; `WeightedObjective::new` panics on others.
        for (name, value) in [
            ("ssmm.lambda_coverage", self.ssmm.lambda_coverage),
            ("ssmm.lambda_diversity", self.ssmm.lambda_diversity),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(CoreError::InvalidConfig {
                    detail: format!("{name} must be finite and non-negative, got {value}"),
                });
            }
        }
        // ORB blurs every pyramid level with this sigma before sampling
        // BRIEF pairs; the kernel builder is the authority on what it takes.
        blur::gaussian_kernel(self.orb.brief_blur_sigma).map_err(|e| CoreError::InvalidConfig {
            detail: format!("orb.brief_blur_sigma must be finite and positive: {e}"),
        })?;
        if self.server_shards == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "server_shards must be at least 1".to_string(),
            });
        }
        if self.mih_probe_radius > 1 {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "mih_probe_radius must be 0 or 1 (MIH probes the 4 \
                     64-bit substrings of each descriptor), got {}",
                    self.mih_probe_radius
                ),
            });
        }
        self.cell.validate().map_err(|e| CoreError::InvalidConfig {
            detail: format!("shared cell: {e}"),
        })?;
        self.storage
            .validate()
            .map_err(|e| CoreError::InvalidConfig {
                detail: format!("storage: {e}"),
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_internally_consistent() {
        let c = BeesConfig::default();
        assert!(c.quality_proportion > 0.0 && c.quality_proportion < 1.0);
        assert!(c.fixed_threshold > 0.0 && c.fixed_threshold < 1.0);
        assert_eq!(c.upload_quality(), 15); // 1 - 0.85

        // The robustness and fleet knobs default to the fault-free,
        // single-shard, private-channel behavior.
        assert!(c.fault.is_none());
        assert_eq!(c.retry.transfer_deadline_s, None);
        assert_eq!(c.stall_limit_s, DEFAULT_STALL_LIMIT_S);
        assert_eq!(c.server_shards, 1);
        assert_eq!(c.mih_probe_radius, 1);
        assert!(c.salvage_partials, "salvage defaults on");
        assert!(!c.cell.enabled, "shared cell defaults off");
        assert_eq!(c.scheduler, SchedulerPolicy::Utility);
    }

    #[test]
    fn quality_mapping_clamps() {
        assert_eq!(BeesConfig::quality_for_proportion(0.0), 100);
        assert_eq!(BeesConfig::quality_for_proportion(1.0), 1);
        assert_eq!(BeesConfig::quality_for_proportion(0.5), 50);
    }

    #[test]
    fn default_config_validates() {
        BeesConfig::default()
            .validate()
            .expect("default config is valid");
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let detail = |c: &BeesConfig| match c.validate() {
            Err(CoreError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };

        let c = BeesConfig {
            stall_limit_s: 0.0,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("stall_limit_s"));

        let mut c = BeesConfig::default();
        c.fault.drop_probability = 1.5;
        assert!(detail(&c).contains("fault model"));

        let mut c = BeesConfig::default();
        c.retry.backoff_factor = 0.0;
        assert!(detail(&c).contains("retry policy"));

        let c = BeesConfig {
            server_shards: 0,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("server_shards"));

        let c = BeesConfig {
            mih_probe_radius: 2,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("mih_probe_radius"));

        let c = BeesConfig {
            stall_limit_s: -1.0,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("stall_limit_s"));

        let c = BeesConfig {
            camera_quality: 0,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("camera_quality"));

        let c = BeesConfig {
            quality_proportion: 1.0,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("quality_proportion"));

        let c = BeesConfig {
            fixed_threshold: f64::NAN,
            ..BeesConfig::default()
        };
        assert!(detail(&c).contains("fixed_threshold"));

        // Each of these would otherwise reach the first SSMM run with two
        // survivors and panic in `WeightedObjective::new`.
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            let mut c = BeesConfig::default();
            c.ssmm.lambda_coverage = bad;
            assert!(detail(&c).contains("ssmm.lambda_coverage"), "{bad}");
            let mut c = BeesConfig::default();
            c.ssmm.lambda_diversity = bad;
            assert!(detail(&c).contains("ssmm.lambda_diversity"), "{bad}");
        }
    }

    #[test]
    fn invalid_adaptive_schemes_are_named_by_validate() {
        // Each of these used to pass validation. The first upload then
        // panicked in `f64::clamp` on the inverted or NaN clamp, and the
        // infinite slope made `value(0.0)` NaN.
        let inverted = LinearScheme {
            min: 0.9,
            max: 0.1,
            ..LinearScheme::eac()
        };
        let nan_clamp = LinearScheme {
            min: f64::NAN,
            ..LinearScheme::eac()
        };
        let infinite_slope = LinearScheme {
            slope: f64::INFINITY,
            ..LinearScheme::eac()
        };
        for bad in [inverted, nan_clamp, infinite_slope] {
            for name in ["eac", "edr", "tw", "eau"] {
                let mut c = BeesConfig::default();
                *match name {
                    "eac" => &mut c.eac,
                    "edr" => &mut c.edr,
                    "tw" => &mut c.tw,
                    _ => &mut c.eau,
                } = bad;
                match c.validate() {
                    Err(CoreError::InvalidConfig { detail }) => {
                        assert!(detail.starts_with(name), "{detail}");
                    }
                    other => panic!("{name} {bad:?}: expected InvalidConfig, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn invalid_brief_blur_sigma_is_a_typed_error() {
        // Each of these used to reach `Orb::extract` and panic in the blur.
        for sigma in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e300] {
            let mut c = BeesConfig::default();
            c.orb.brief_blur_sigma = sigma;
            match c.validate() {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains("orb.brief_blur_sigma"), "{detail}");
                }
                other => panic!("sigma {sigma}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_blackout_schedules_are_rejected_by_config_validation() {
        let detail = |c: &BeesConfig| match c.validate() {
            Err(CoreError::InvalidConfig { detail }) => detail,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };

        // Overlapping windows: the second starts inside the first.
        let mut c = BeesConfig::default();
        c.fault.blackout_windows = vec![(10.0, 20.0), (15.0, 25.0)];
        assert!(detail(&c).contains("blackout_windows"));

        // Unsorted windows: a later entry starts before an earlier one.
        let mut c = BeesConfig::default();
        c.fault.blackout_windows = vec![(30.0, 40.0), (5.0, 10.0)];
        assert!(detail(&c).contains("blackout_windows"));

        // An empty-span window is rejected too.
        let mut c = BeesConfig::default();
        c.fault.blackout_windows = vec![(10.0, 10.0)];
        assert!(detail(&c).contains("blackout_windows"));

        // A sorted, disjoint (even adjacent) schedule passes.
        let mut c = BeesConfig::default();
        c.fault.blackout_windows = vec![(10.0, 20.0), (20.0, 25.0), (40.0, 41.5)];
        c.validate().expect("sorted disjoint windows are valid");
    }

    #[test]
    fn invalid_cell_knobs_are_named_by_validate() {
        let mut c = BeesConfig::default();
        c.cell.epoch_s = -1.0;
        match c.validate() {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("shared cell"), "{detail}");
                assert!(detail.contains("epoch_s"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let mut c = BeesConfig::default();
        c.cell.oversubscription_threshold = 0.2;
        match c.validate() {
            Err(CoreError::InvalidConfig { detail }) => {
                assert!(detail.contains("oversubscription_threshold"), "{detail}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }
}
