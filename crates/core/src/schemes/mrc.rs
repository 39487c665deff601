//! MRC (Dao et al., CoNEXT 2014), reimplemented from the BEES paper's
//! description (the BEES authors did the same: "due to our lack of the
//! source code of MRC, we implement the MRC based on the scheme described
//! in its paper"): ORB features, cross-batch redundancy elimination, plus
//! thumbnail feedback — the server returns a small thumbnail per redundant
//! candidate for client-side confirmation, which is why "MRC consumes a
//! little more bandwidth overhead than SmartEye".

use crate::schemes::stages::Batch;
use crate::schemes::{BatchCtx, SchemeKind, UploadScheme};
use crate::{BatchReport, BeesConfig, Result};
use bees_features::orb::Orb;

/// MRC's fixed ORB similarity threshold (no adaptation).
const THRESHOLD: f64 = 0.12;

/// The MRC scheme.
#[derive(Debug)]
pub struct Mrc {
    extractor: Orb,
}

impl Mrc {
    /// Builds MRC from the system configuration.
    pub fn new(config: &BeesConfig) -> Self {
        Mrc {
            extractor: Orb::new(config.orb),
        }
    }
}

impl UploadScheme for Mrc {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Mrc
    }

    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport> {
        Batch::run(self.kind(), ctx, |b| {
            b.traditional(&self.extractor, THRESHOLD, true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::SmartEye;
    use crate::{Client, Server};
    use bees_datasets::{disaster_batch, SceneConfig};
    use bees_net::BandwidthTrace;

    fn config() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    fn small() -> SceneConfig {
        SceneConfig {
            width: 96,
            height: 72,
            n_shapes: 10,
            texture_amp: 8.0,
        }
    }

    #[test]
    fn eliminates_staged_redundancy() {
        let cfg = config();
        let scheme = Mrc::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let data = disaster_batch(21, 8, 0, 0.5, small());
        scheme.preload_server(&mut server, &data.server_preload);
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert!(
            r.skipped_cross_batch >= 3,
            "staged 4 redundant images, detected {}",
            r.skipped_cross_batch
        );
        assert_eq!(r.uploaded_images + r.skipped_cross_batch, 8);
    }

    #[test]
    fn thumbnail_feedback_adds_downlink_over_smarteye() {
        let cfg = config();
        let data = disaster_batch(22, 6, 0, 0.5, small());

        let mrc = Mrc::new(&cfg);
        let mut server_m = Server::try_new(&cfg).unwrap();
        let mut client_m = Client::try_new(0, &cfg).unwrap();
        mrc.preload_server(&mut server_m, &data.server_preload);
        let rm = mrc
            .upload(&mut BatchCtx::new(
                &mut client_m,
                &mut server_m,
                &data.batch,
            ))
            .unwrap();

        let se = SmartEye::new(&cfg);
        let mut server_s = Server::try_new(&cfg).unwrap();
        let mut client_s = Client::try_new(0, &cfg).unwrap();
        se.preload_server(&mut server_s, &data.server_preload);
        let rs = se
            .upload(&mut BatchCtx::new(
                &mut client_s,
                &mut server_s,
                &data.batch,
            ))
            .unwrap();

        if rm.skipped_cross_batch > 0 {
            assert!(
                rm.downlink_bytes > rs.downlink_bytes,
                "MRC {} vs SmartEye {}",
                rm.downlink_bytes,
                rs.downlink_bytes
            );
        }
    }

    #[test]
    fn extraction_is_cheaper_than_smarteye() {
        use bees_energy::EnergyCategory;
        let cfg = config();
        let data = disaster_batch(23, 3, 0, 0.0, small());

        let mrc = Mrc::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let rm = mrc
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();

        let se = SmartEye::new(&cfg);
        let mut server2 = Server::try_new(&cfg).unwrap();
        let mut client2 = Client::try_new(0, &cfg).unwrap();
        let rs = se
            .upload(&mut BatchCtx::new(&mut client2, &mut server2, &data.batch))
            .unwrap();

        assert!(
            rm.energy.get(EnergyCategory::FeatureExtraction)
                < rs.energy.get(EnergyCategory::FeatureExtraction),
            "ORB must be cheaper than PCA-SIFT"
        );
        // Per-descriptor wire size is asserted in bees-features' PCA tests
        // (32 B vs 144 B); totals depend on each detector's keypoint count.
    }
}
