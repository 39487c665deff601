//! System-wide configuration.

use crate::error::CoreError;
use crate::scheduler::SchedulerPolicy;
use bees_energy::Battery;
use bees_features::orb::OrbConfig;
use bees_features::similarity::SimilarityConfig;
use bees_image::blur;
use bees_net::{BandwidthTrace, FaultModel, RetryPolicy, SharedCellConfig};
use bees_store::StorageConfig;

/// Which index backend the server uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexBackend {
    /// Exact linear scan.
    Linear,
    /// Multi-index hashing acceleration (binary descriptors only).
    Mih,
}

/// The tunables workloads set: each field takes different values across
/// the experiments, or is named by the end-to-end benchmark.
///
/// Settings with one value in use are named constants next to their use
/// instead (see `DESIGN.md` §5): the EAAS schemes
/// ([`EAC`](crate::schemes::EAC), [`EDR`](crate::schemes::EDR),
/// [`EAU`](crate::schemes::EAU)) and the upload quality beside BEES, the
/// stored-photo quality [`CAMERA_QUALITY`](crate::schemes::CAMERA_QUALITY),
/// and each baseline's fixed threshold in its own module. The defaults
/// mirror the paper where it gives numbers (3150 mAh battery, 0–512 Kbps
/// WiFi).
#[derive(Debug, Clone)]
pub struct BeesConfig {
    /// ORB extractor settings (client and server must agree).
    pub orb: OrbConfig,
    /// Similarity-scoring thresholds (Eq. 2 matching).
    pub similarity: SimilarityConfig,
    /// The battery every client starts with.
    pub battery: Battery,
    /// Uplink/downlink bandwidth trace.
    pub trace: BandwidthTrace,
    /// Fault injection layered on the trace (disconnections, drops);
    /// defaults to [`FaultModel::none`], i.e. the perfectly reliable
    /// channel. Each client reseeds the model with its id so a fleet does
    /// not fail in lockstep.
    pub fault: FaultModel,
    /// Retry/backoff/chunking policy for the resumable transfer path.
    pub retry: RetryPolicy,
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
            similarity: SimilarityConfig::default(),
            battery: Battery::default(),
            trace: BandwidthTrace::disaster_wifi(0xB335),
            fault: FaultModel::none(),
            retry: RetryPolicy::default(),
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

    /// Validates the bandwidth trace, the network-robustness knobs (fault
    /// model, retry policy), the ORB pyramid and blur, the server's index
    /// and shard knobs, the shared cell and the storage tier. Called by
    /// [`crate::Client::try_new`] and [`crate::Server::try_new`] so an
    /// invalid configuration surfaces as a typed error instead of a panic
    /// deep in the simulation.
    ///
    /// # Examples
    ///
    /// ```
    /// use bees_core::BeesConfig;
    /// use bees_net::BandwidthTrace;
    ///
    /// let config = BeesConfig {
    ///     trace: BandwidthTrace::constant(256_000.0).unwrap(),
    ///     server_shards: 2,
    ///     ..BeesConfig::default()
    /// };
    /// config.validate().expect("knobs are in range");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending knob.
    pub fn validate(&self) -> crate::Result<()> {
        self.trace
            .validate()
            .map_err(|e| CoreError::InvalidConfig {
                detail: format!("trace: {e}"),
            })?;
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
        // ORB's pyramid needs at least one level, each smaller than the last
        // (`Pyramid::build` panics otherwise).
        if self.orb.scale_factor.is_nan() || self.orb.scale_factor <= 1.0 {
            return Err(CoreError::InvalidConfig {
                detail: format!(
                    "orb.scale_factor must exceed 1, got {}",
                    self.orb.scale_factor
                ),
            });
        }
        if self.orb.n_levels == 0 {
            return Err(CoreError::InvalidConfig {
                detail: "orb.n_levels must be at least 1".to_string(),
            });
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
        // The robustness and fleet knobs default to the fault-free,
        // single-shard, private-channel behavior.
        assert!(c.fault.is_none());
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

        let mut c = BeesConfig::default();
        c.fault.drop_probability = 1.5;
        assert!(detail(&c).contains("fault model"));

        let mut c = BeesConfig::default();
        c.retry.chunk_bytes = 0;
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
    fn invalid_orb_pyramid_is_a_typed_error() {
        // Each of these used to reach `Pyramid::build` and panic.
        let mut cases = vec![];
        for scale_factor in [1.0, 0.5, -1.0, f32::NAN] {
            let mut c = BeesConfig::default();
            c.orb.scale_factor = scale_factor;
            cases.push((c, "orb.scale_factor"));
        }
        let mut c = BeesConfig::default();
        c.orb.n_levels = 0;
        cases.push((c, "orb.n_levels"));
        for (c, field) in cases {
            match c.validate() {
                Err(CoreError::InvalidConfig { detail }) => {
                    assert!(detail.contains(field), "{detail}");
                }
                other => panic!("{:?}: expected InvalidConfig, got {other:?}", c.orb),
            }
        }
    }

    #[test]
    fn malformed_traces_are_typed_errors() {
        // The variants' fields are public, so these skip the constructors'
        // checks; an empty schedule used to panic on the first transmit and
        // a zero interval to hang it.
        let fluctuating = |min_bps, max_bps, interval_s| BandwidthTrace::Fluctuating {
            seed: 1,
            min_bps,
            max_bps,
            interval_s,
        };
        let bad = [
            BandwidthTrace::Schedule { segments: vec![] },
            fluctuating(0.0, 512_000.0, 0.0),
            fluctuating(0.0, 512_000.0, -2.0),
            fluctuating(0.0, 512_000.0, f64::NAN),
            fluctuating(-1.0, 512_000.0, 2.0),
            fluctuating(f64::NAN, 512_000.0, 2.0),
            fluctuating(512_000.0, 0.0, 2.0),
        ];
        for trace in bad {
            let private = BeesConfig {
                trace: trace.clone(),
                ..BeesConfig::default()
            };
            let mut shared = BeesConfig::default();
            shared.cell.capacity = trace.clone();
            for (c, field) in [(private, "trace"), (shared, "shared cell")] {
                let errors = [
                    crate::Client::try_new(0, &c).err(),
                    crate::Server::try_new(&c).err(),
                ];
                for err in errors {
                    match err {
                        Some(CoreError::InvalidConfig { detail }) => {
                            assert!(detail.contains(field), "{detail}");
                        }
                        other => panic!("{trace:?}: expected InvalidConfig, got {other:?}"),
                    }
                }
            }
        }
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
    }
}
