//! SmartEye (Hua et al., INFOCOM 2015), reimplemented from the BEES
//! paper's description: PCA-SIFT features, cross-batch redundancy
//! elimination at the source, no in-batch detection, no approximate
//! sharing. The paper's measurements hinge on PCA-SIFT's cost: "SmartEye
//! extracts image features using PCA-SIFT that consumes more energy than
//! MRC".

use crate::schemes::stages::Batch;
use crate::schemes::{BatchCtx, SchemeKind, UploadScheme};
use crate::{BatchReport, BeesConfig, PreloadBatch, Result, Server};
use bees_features::pca::PcaSift;
use bees_image::RgbImage;

/// Seed of the deterministic orthonormal basis SmartEye's PCA-SIFT
/// projects onto.
pub const PCA_BASIS_SEED: u64 = 0xBEE5;
/// SmartEye's fixed PCA-SIFT similarity threshold. Vector descriptors
/// produce a different score distribution than binary ones, so it is
/// calibrated apart from MRC's ORB threshold (see `calibrate`).
pub const PCA_THRESHOLD: f64 = 0.15;

/// The SmartEye scheme.
pub struct SmartEye {
    extractor: PcaSift,
}

impl SmartEye {
    /// Builds SmartEye (PCA-SIFT on the [`PCA_BASIS_SEED`] basis). Its
    /// extractor reads nothing from the configuration; the parameter keeps
    /// every scheme's constructor alike.
    pub fn new(_config: &BeesConfig) -> Self {
        SmartEye {
            extractor: PcaSift::with_seeded_basis(PCA_BASIS_SEED),
        }
    }
}

impl UploadScheme for SmartEye {
    fn kind(&self) -> SchemeKind {
        SchemeKind::SmartEye
    }

    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport> {
        Batch::run(self.kind(), ctx, |b| {
            b.traditional(&self.extractor, PCA_THRESHOLD, false)
        })
    }

    fn preload_server(&self, server: &mut Server, images: &[RgbImage]) {
        // SmartEye's server index stores PCA-SIFT features; ORB preloads
        // would be invisible to its queries.
        server.preload(PreloadBatch::new(images).with_extractor(&self.extractor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Client;
    use bees_datasets::{disaster_batch, SceneConfig};
    use bees_energy::EnergyCategory;
    use bees_net::BandwidthTrace;

    fn config() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    #[test]
    fn detects_cross_batch_redundancy_with_pca_features() {
        let cfg = config();
        let scheme = SmartEye::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let small = SceneConfig {
            width: 96,
            height: 72,
            n_shapes: 10,
            texture_amp: 8.0,
        };
        let data = disaster_batch(11, 6, 0, 0.5, small);
        scheme.preload_server(&mut server, &data.server_preload);
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert_eq!(r.batch_size, 6);
        assert_eq!(r.uploaded_images + r.skipped_cross_batch, 6);
        // Feature extraction energy must be nonzero and no in-batch
        // elimination ever happens.
        assert!(r.energy.get(EnergyCategory::FeatureExtraction) > 0.0);
        assert_eq!(r.skipped_in_batch, 0);
    }

    #[test]
    fn costs_more_extraction_energy_than_direct() {
        let cfg = config();
        let scheme = SmartEye::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let small = SceneConfig {
            width: 96,
            height: 72,
            n_shapes: 10,
            texture_amp: 8.0,
        };
        let data = disaster_batch(13, 3, 0, 0.0, small);
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        // With zero redundancy, SmartEye pays extraction + features on top
        // of the same image uploads: strictly worse than Direct Upload.
        let extraction = r.energy.get(EnergyCategory::FeatureExtraction);
        assert!(extraction > 0.0);
        assert_eq!(r.uploaded_images, 3);
    }
}
