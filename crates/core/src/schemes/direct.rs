//! Direct Upload: the baseline that sends every image verbatim.

use crate::schemes::stages::Batch;
use crate::schemes::{BatchCtx, SchemeKind, UploadScheme};
use crate::{BatchReport, Result};
use bees_features::ImageFeatures;

/// Uploads every stored photo file verbatim, with no redundancy detection.
///
/// The "file" is the camera-quality encoding of the image (phones store
/// JPEGs, not raw bitmaps), so Direct Upload's bytes are the same files the
/// feature-based schemes would have sent for their unique images.
///
/// # Examples
///
/// ```no_run
/// use bees_core::schemes::{BatchCtx, DirectUpload, UploadScheme};
/// use bees_core::{BeesConfig, Client, Server};
/// use bees_datasets::{Scene, SceneConfig, ViewJitter};
///
/// # fn main() -> Result<(), bees_core::CoreError> {
/// let config = BeesConfig::default();
/// let mut server = Server::try_new(&config)?;
/// let mut client = Client::try_new(0, &config)?;
/// let img = Scene::new(1, SceneConfig::default()).render(&ViewJitter::identity());
/// let report =
///     DirectUpload::new(&config).upload(&mut BatchCtx::new(&mut client, &mut server, &[img]))?;
/// assert_eq!(report.uploaded_images, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DirectUpload;

impl DirectUpload {
    /// Creates the scheme. It reads nothing from the configuration; the
    /// parameter keeps every scheme's constructor alike.
    pub fn new(_config: &crate::BeesConfig) -> Self {
        DirectUpload
    }
}

impl UploadScheme for DirectUpload {
    fn kind(&self) -> SchemeKind {
        SchemeKind::DirectUpload
    }

    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport> {
        Batch::run(self.kind(), ctx, |b| {
            for i in 0..b.ctx.batch.len() {
                // Direct Upload carries no features; the server stores an
                // empty feature set (it performs no deduplication for this
                // scheme).
                b.upload_verbatim(i, |request| {
                    request.with_features(ImageFeatures::empty_binary())
                })?;
                // A battery that dies mid-batch still reports the delay of
                // the images before it.
                b.report.total_delay_s = b.elapsed();
            }
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BeesConfig, Client, Server};
    use bees_datasets::{Scene, SceneConfig, ViewJitter};
    use bees_energy::EnergyCategory;
    use bees_image::RgbImage;
    use bees_net::BandwidthTrace;

    fn setup() -> (BeesConfig, Server, Client) {
        let cfg = BeesConfig {
            trace: BandwidthTrace::constant(256_000.0).unwrap(),
            ..BeesConfig::default()
        };
        let server = Server::try_new(&cfg).unwrap();
        let client = Client::try_new(0, &cfg).unwrap();
        (cfg, server, client)
    }

    fn images(n: usize) -> Vec<RgbImage> {
        (0..n)
            .map(|i| {
                Scene::new(
                    i as u64,
                    SceneConfig {
                        width: 96,
                        height: 72,
                        n_shapes: 8,
                        texture_amp: 8.0,
                    },
                )
                .render(&ViewJitter::identity())
            })
            .collect()
    }

    #[test]
    fn uploads_everything() {
        let (cfg, mut server, mut client) = setup();
        let batch = images(3);
        let r = DirectUpload::new(&cfg)
            .upload(&mut BatchCtx::new(&mut client, &mut server, &batch))
            .unwrap();
        assert_eq!(r.uploaded_images, 3);
        assert_eq!(r.skipped_cross_batch, 0);
        assert_eq!(r.skipped_in_batch, 0);
        assert_eq!(server.received_images(), 3);
        // Camera files are encoded: smaller than raw, larger than zero.
        assert!(r.image_bytes > 0);
        assert!(r.image_bytes < 3 * 96 * 72 * 3);
        assert!(r.uplink_bytes > r.image_bytes);
        assert!(!r.exhausted);
        assert!(r.total_delay_s > 0.0);
    }

    #[test]
    fn all_energy_is_image_upload() {
        let (cfg, mut server, mut client) = setup();
        let batch = images(2);
        let r = DirectUpload::new(&cfg)
            .upload(&mut BatchCtx::new(&mut client, &mut server, &batch))
            .unwrap();
        assert!(r.energy.get(EnergyCategory::ImageUpload) > 0.0);
        assert_eq!(r.energy.get(EnergyCategory::FeatureExtraction), 0.0);
        assert_eq!(r.energy.get(EnergyCategory::FeatureUpload), 0.0);
    }

    #[test]
    fn exhaustion_stops_mid_batch() {
        let (cfg, mut server, mut client) = setup();
        client.battery_mut().set_fraction(0.0);
        let batch = images(2);
        let r = DirectUpload::new(&cfg)
            .upload(&mut BatchCtx::new(&mut client, &mut server, &batch))
            .unwrap();
        assert!(r.exhausted);
        assert_eq!(r.uploaded_images, 0);
    }

    #[test]
    fn geotags_reach_the_server() {
        let (cfg, mut server, mut client) = setup();
        let batch = images(2);
        let tags = vec![(2.32, 48.86), (2.33, 48.87)];
        let mut ctx = BatchCtx::new(&mut client, &mut server, &batch)
            .with_geotags(&tags)
            .unwrap();
        DirectUpload::new(&cfg).upload(&mut ctx).unwrap();
        assert_eq!(server.unique_locations(), 2);
    }

    #[test]
    fn mismatched_geotags_are_rejected_up_front() {
        let (_cfg, mut server, mut client) = setup();
        let batch = images(2);
        let tags = vec![(2.32, 48.86)];
        let err = BatchCtx::new(&mut client, &mut server, &batch).with_geotags(&tags);
        assert!(matches!(
            err.map(|_| ()),
            Err(crate::CoreError::GeotagMismatch {
                images: 2,
                geotags: 1
            })
        ));
    }
}
