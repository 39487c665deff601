//! A PhotoNet-like baseline: redundancy elimination by *global* features.
//!
//! PhotoNet (Uddin et al., RTSS 2011 — the BEES paper's reference [3])
//! "uses image metadata, i.e., geotags and color histograms of images, to
//! approximately evaluate and eliminate similar images". This scheme
//! reproduces the histogram half of that idea in the source-side
//! architecture: compute a 64-cell color histogram per image (far cheaper
//! than any local-feature extraction), upload the histograms, and drop
//! images whose histogram-intersection similarity against the server's
//! store exceeds a threshold.
//!
//! It exists to make the paper's §III-D claim measurable: global features
//! are cheap but markedly less accurate than local ones (see the
//! `global_vs_local` experiment), which is why BEES pays for ORB.

use crate::schemes::stages::Batch;
use crate::schemes::{BatchCtx, SchemeKind, UploadScheme};
use crate::{BatchReport, BeesConfig, PreloadBatch, Result, RetrievalQuery, Server};
use bees_energy::{model, EnergyCategory};
use bees_features::global::ColorHistogram;
use bees_image::RgbImage;
use bees_telemetry::names;

/// Histogram-intersection threshold of the global-feature dedup:
/// conservatively high, since histograms overlap badly across scenes,
/// which is the paper's argument for local features.
const THRESHOLD: f64 = 0.85;

/// The PhotoNet-like scheme.
#[derive(Debug, Clone, Copy)]
pub struct PhotoNetLike;

impl PhotoNetLike {
    /// Builds the scheme. It reads nothing from the configuration; the
    /// parameter keeps every scheme's constructor alike.
    pub fn new(_config: &BeesConfig) -> Self {
        PhotoNetLike
    }
}

impl UploadScheme for PhotoNetLike {
    fn kind(&self) -> SchemeKind {
        SchemeKind::PhotoNetLike
    }

    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport> {
        Batch::run(self.kind(), ctx, |b| {
            // 1. Global feature extraction: one pass over the pixels.
            let client = &mut *b.ctx.client;
            let (t0, j0) = (client.now(), client.ledger().total());
            let mut histograms = Vec::with_capacity(b.ctx.batch.len());
            for img in b.ctx.batch {
                let joules = model::histogram_energy(img.pixel_count());
                client.spend_cpu(EnergyCategory::FeatureExtraction, joules)?;
                histograms.push(ColorHistogram::from_image(img));
            }
            b.ctx
                .telemetry
                .span(names::AFE_ORB, t0)
                .attr_str("scheme", self.kind().as_str())
                .attr_str("extractor", "histogram")
                .attr_u64("images", histograms.len() as u64)
                .attr_f64("joules", client.ledger().total() - j0)
                .close(client.now());

            // 2. Upload the histograms (256 B each) and dedup by histogram
            //    intersection. Verdicts are computed for the whole batch
            //    against the server's *current* store before any upload (as
            //    in the other cross-batch schemes): in-batch duplicates are
            //    invisible to this scheme.
            let redundant = b.query(
                histograms.len() * ColorHistogram::WIRE_SIZE,
                histograms
                    .iter()
                    .map(|h| RetrievalQuery::new().similar_to_histogram(h)),
                |_| THRESHOLD,
                false,
                false,
            )?;

            // 3. Upload the unique images verbatim.
            for (i, h) in histograms.into_iter().enumerate() {
                if !redundant[i] {
                    b.upload_verbatim(i, |request| request.with_histogram(h))?;
                }
            }
            Ok(())
        })
    }

    fn preload_server(&self, server: &mut Server, images: &[RgbImage]) {
        server.preload(PreloadBatch::histograms(images));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::Mrc;
    use crate::Client;
    use bees_datasets::{disaster_batch, SceneConfig};
    use bees_net::BandwidthTrace;

    fn config() -> BeesConfig {
        BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        }
    }

    #[test]
    fn extraction_is_far_cheaper_than_orb() {
        let cfg = config();
        let data = disaster_batch(61, 4, 0, 0.0, SceneConfig::default());
        let run = |scheme: &dyn UploadScheme| {
            let mut server = Server::try_new(&cfg).unwrap();
            let mut client = Client::try_new(0, &cfg).unwrap();
            scheme
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
                .unwrap()
        };
        let pn = run(&PhotoNetLike::new(&cfg));
        let mrc = run(&Mrc::new(&cfg));
        let e = |r: &BatchReport| r.energy.get(EnergyCategory::FeatureExtraction);
        assert!(
            e(&pn) < e(&mrc) / 5.0,
            "photonet {} vs mrc {}",
            e(&pn),
            e(&mrc)
        );
        // And its feature payload is far smaller too.
        assert!(pn.feature_bytes < mrc.feature_bytes / 5);
    }

    #[test]
    fn detects_exact_duplicates() {
        let cfg = config();
        let data = disaster_batch(62, 6, 0, 0.5, SceneConfig::default());
        let scheme = PhotoNetLike::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &cfg).unwrap();
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert_eq!(r.uploaded_images + r.skipped_cross_batch, 6);
        // Histogram dedup should catch at least some of the staged similar
        // views (they differ only by small jitter/brightness shifts).
        assert!(r.skipped_cross_batch >= 1, "no histogram dedup at all");
    }

    #[test]
    fn conservation_holds_with_exhaustion() {
        let cfg = config();
        let data = disaster_batch(63, 4, 0, 0.0, SceneConfig::default());
        let scheme = PhotoNetLike::new(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        client.battery_mut().set_fraction(0.0);
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert!(r.exhausted);
    }
}
