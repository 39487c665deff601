//! BEES: Approximate Image Sharing with energy-aware adaptation.
//!
//! The full pipeline of Fig. 2, per batch:
//!
//! 1. **AFE** — compress each bitmap by the EAC proportion
//!    `C = 0.4 − 0.4·Ebat`, then extract ORB features from the compressed
//!    bitmap,
//! 2. **CBRD** — upload the features, receive per-image verdicts, and drop
//!    images whose max server similarity exceeds the EDR threshold
//!    `T = T0 + k·Ebat`,
//! 3. **IBRD** — build the pairwise similarity graph over the survivors and
//!    run SSMM (partition at `Tw`, budget = #subgraphs, greedy
//!    coverage+diversity maximization) to pick the unique subset,
//! 4. **AIU** — resolution-compress each selected image by the EAU
//!    proportion `Cr = 0.8 − 0.8·Ebat`, quality-compress with the DCT codec
//!    at the fixed 0.85 proportion, and upload as a *progressive*
//!    (spectral-selection) stream so a cut transfer's confirmed chunk
//!    prefix still decodes into a usable partial image. The degradation
//!    ladder per image is full → salvaged-partial → thumbnail → defer.
//!
//! `BEES-EA` is the ablation without adaptation: identical pipeline with
//! every scheme frozen at its `Ebat = 1` value (no bitmap compression,
//! highest threshold, no resolution compression) — quality compression,
//! ORB, and both redundancy eliminations still apply.

use crate::schemes::stages::{Batch, Delivery};
use crate::schemes::{BatchCtx, SchemeKind, UploadScheme};
use crate::{
    BatchReport, BeesConfig, Client, IngestRequest, PartialImage, Result, RetrievalQuery,
    UploadTier,
};
use bees_energy::{AdaptiveScheme, EnergyCategory, LinearScheme};
use bees_features::orb::Orb;
use bees_features::similarity::jaccard_similarity;
use bees_features::ImageFeatures;
use bees_image::codec::progressive;
use bees_image::metrics::ssim;
use bees_image::{codec, resize, RgbImage};
use bees_net::wire;
use bees_submodular::{SimilarityGraph, Ssmm};
use bees_telemetry::names;

/// Resolution-compression proportion of the degraded (thumbnail) upload
/// tried after the full-quality upload exhausts its retries: 75 % of the
/// pixel information is discarded.
const THUMBNAIL_RESOLUTION_PROPORTION: f64 = 0.75;
/// Codec quality of the degraded upload — a recognizable but very small
/// rendition, so *some* situational awareness still reaches the server.
const THUMBNAIL_QUALITY: u8 = 20;

/// The BEES scheme (or BEES-EA when adaptation is disabled).
pub struct Bees {
    extractor: Orb,
    eac: LinearScheme,
    edr: LinearScheme,
    tw: LinearScheme,
    eau: LinearScheme,
    ssmm: Ssmm,
    similarity: bees_features::similarity::SimilarityConfig,
    upload_quality: u8,
    camera_quality: u8,
    adaptive: bool,
    salvage_partials: bool,
    chunk_bytes: usize,
}

impl Bees {
    /// Full BEES with energy-aware adaptation.
    pub fn adaptive(config: &BeesConfig) -> Self {
        Self::build(config, true)
    }

    /// BEES-EA: the same pipeline with every EAAS scheme frozen at its
    /// `Ebat = 1` value.
    pub fn without_adaptation(config: &BeesConfig) -> Self {
        Self::build(config, false)
    }

    fn build(config: &BeesConfig, adaptive: bool) -> Self {
        Bees {
            extractor: Orb::new(config.orb),
            eac: config.eac,
            edr: config.edr,
            tw: config.tw,
            eau: config.eau,
            ssmm: Ssmm::new(config.ssmm),
            similarity: config.similarity,
            upload_quality: config.upload_quality(),
            camera_quality: config.camera_quality,
            adaptive,
            salvage_partials: config.salvage_partials,
            chunk_bytes: config.retry.chunk_bytes,
        }
    }

    /// The `Ebat` the EAAS schemes see: the real battery fraction when
    /// adaptive, a constant 1.0 for BEES-EA.
    fn effective_ebat(&self, client: &Client) -> f64 {
        if self.adaptive {
            client.ebat()
        } else {
            1.0
        }
    }

    /// The four stages of Fig. 2 over one batch.
    fn stages(&self, b: &mut Batch<'_, '_>) -> Result<()> {
        let tier = b.ctx.tier();
        // ---- Stage 1: Approximate Feature Extraction --------------------
        let eac = |client: &Client| self.eac.value(self.effective_ebat(client));
        let features = b.extract(&self.extractor, Some(&eac))?;

        // ---- Stage 2: Cross-Batch Redundancy Detection -------------------
        // A deferred grant spends no radio energy at all: the feature query
        // is skipped, and degrades the way a failed one does — every image
        // is treated as non-redundant (the in-batch stage still runs
        // locally).
        let redundant = b.query(
            features.iter().map(ImageFeatures::wire_size).sum(),
            features.iter().map(|f| RetrievalQuery::new().similar_to(f)),
            |client| self.edr.value(self.effective_ebat(client)),
            tier == UploadTier::Defer,
            false,
        )?;
        let survivors: Vec<usize> = (0..features.len()).filter(|&i| !redundant[i]).collect();

        // ---- Stage 3: In-Batch Redundancy Detection (SSMM) ---------------
        let client = &mut *b.ctx.client;
        let model = *client.energy_model();
        let (t_ssmm, j_ssmm) = (client.now(), client.ledger().total());
        let n_survivors = survivors.len();
        let selected: Vec<usize> = if survivors.len() > 1 {
            // Pairwise matching cost on the phone.
            let mut pair_j = 0.0;
            for (a, &i) in survivors.iter().enumerate() {
                for &j in survivors.iter().skip(a + 1) {
                    pair_j += model.matching_energy(features[i].len(), features[j].len());
                }
            }
            client.spend_cpu(EnergyCategory::FeatureExtraction, pair_j)?;
            // The pairwise Jaccard closure is pure, so the graph can be
            // built row-parallel without changing a single weight.
            let graph = SimilarityGraph::from_pairwise_par(survivors.len(), |a, b| {
                jaccard_similarity(
                    &features[survivors[a]],
                    &features[survivors[b]],
                    &self.similarity,
                )
            });
            let tw = self.tw.value(self.effective_ebat(client));
            let summary = self.ssmm.summarize(&graph, tw);
            b.report.skipped_in_batch = survivors.len() - summary.selected.len();
            summary
                .selected
                .iter()
                .map(|&local| survivors[local])
                .collect()
        } else {
            survivors
        };
        b.ctx
            .telemetry
            .span(names::ARD_SSMM, t_ssmm)
            .attr_str("scheme", self.kind().as_str())
            .attr_u64("survivors", n_survivors as u64)
            .attr_u64("selected", selected.len() as u64)
            .attr_f64("joules", client.ledger().total() - j_ssmm)
            .close(client.now());

        // ---- Stage 4: Approximate Image Uploading ------------------------
        let (t_aiu, j_aiu) = (client.now(), client.ledger().total());
        let encoded = self.speculate_encodes(b, &selected, tier);
        for (&i, guess) in selected.iter().zip(encoded) {
            self.upload_selected(b, i, &features[i], tier, guess)?;
        }
        let client = &*b.ctx.client;
        b.ctx
            .telemetry
            .span(names::AIU_ENCODE, t_aiu)
            .attr_str("scheme", self.kind().as_str())
            .attr_u64("selected", selected.len() as u64)
            .attr_u64("uploaded", b.report.uploaded_images as u64)
            .attr_u64("salvaged", b.report.salvaged_images as u64)
            .attr_u64("degraded", b.report.degraded_images as u64)
            .attr_u64("bytes", b.report.image_bytes as u64)
            .attr_f64("joules", client.ledger().total() - j_aiu)
            .close(client.now());
        Ok(())
    }

    /// The top rung's resize and encode of every selected image, one image
    /// per runtime task, at the EAU proportion read at stage start. Only
    /// `Full` and `PartialScans` grants try that rung first; under other
    /// grants nothing is speculated.
    fn speculate_encodes(
        &self,
        b: &Batch<'_, '_>,
        selected: &[usize],
        tier: UploadTier,
    ) -> Vec<Option<Encoded>> {
        if !matches!(tier, UploadTier::Full | UploadTier::PartialScans) {
            return selected.iter().map(|_| None).collect();
        }
        let cr = self.eau.value(self.effective_ebat(b.ctx.client));
        let (batch, quality) = (b.ctx.batch, self.upload_quality);
        bees_runtime::par_map(selected, |&i| {
            let shrunk = resize::compress_resolution_rgb(&batch[i], cr).ok()?;
            let full = progressive::encode_progressive_rgb(&shrunk, quality).ok()?;
            Some((shrunk, full))
        })
    }

    /// AIU's degradation ladder for selected image `i`: the progressive
    /// upload → (on retry exhaustion, or under a `PartialScans` grant) the
    /// confirmed scan prefix as a partial image → (nothing decodable) the
    /// thumbnail → (again exhausted) deferral. `guess` is the top rung's
    /// speculative encode.
    fn upload_selected(
        &self,
        b: &mut Batch<'_, '_>,
        i: usize,
        features: &ImageFeatures,
        tier: UploadTier,
        guess: Option<Encoded>,
    ) -> Result<()> {
        if tier == UploadTier::Defer {
            return self.defer(b, i, features);
        }
        // A thumbnail grant skips the full-quality attempt instead of
        // burning airtime it would lose anyway.
        if tier == UploadTier::Thumbnail || !self.upload_progressive(b, i, features, tier, guess)? {
            self.upload_thumbnail(b, i, features)?;
        }
        Ok(())
    }

    /// The top rung: the progressive stream at the EAU proportion. Returns
    /// whether the image landed, whole or as a partial.
    fn upload_progressive(
        &self,
        b: &mut Batch<'_, '_>,
        i: usize,
        features: &ImageFeatures,
        tier: UploadTier,
        guess: Option<Encoded>,
    ) -> Result<bool> {
        let cr = self.eau.value(self.effective_ebat(b.ctx.client));
        let (shrunk, full) = shrink_encode(b, i, cr, guess, |shrunk| {
            progressive::encode_progressive_rgb(shrunk, self.upload_quality)
        })?;
        // A PartialScans grant transmits only a prefix of the progressive
        // stream; whatever it delivers is ingested through the
        // partial-image machinery, upgradeable later.
        let payload = match tier {
            UploadTier::PartialScans => &full[..tier.est_bytes(full.len()).min(full.len())],
            _ => &full[..],
        };
        let capped = payload.len() < full.len();
        let bytes = wire::framed_upload_bytes(payload.len(), self.chunk_bytes);
        let (confirmed, banked_j) = match b.deliver(
            EnergyCategory::ImageUpload,
            bytes,
            self.salvage_partials || capped,
        )? {
            Delivery::Delivered if !capped => {
                b.report.uplink_bytes += bytes;
                b.report.image_bytes += payload.len();
                b.report.uploaded_images += 1;
                b.ingest(
                    i,
                    IngestRequest::full(payload.len())
                        .with_bytes(payload.to_vec())
                        .with_features(features.clone()),
                );
                return Ok(true);
            }
            Delivery::Delivered => (bytes, 0.0),
            Delivery::Salvaged(summary) => (summary.banked_bytes, summary.salvaged_joules),
            Delivery::Deferred => return Ok(false),
        };
        // A capped or cut transfer: the payload of the confirmed whole
        // chunks is all the server holds.
        let prefix =
            &payload[..wire::salvaged_payload_bytes(confirmed, payload.len(), self.chunk_bytes)];
        let Ok((decoded, progress)) = progressive::decode_partial(prefix) else {
            // The prefix ends before the DC scan completes: nothing
            // decodable was bought, so the banked energy (none for a
            // delivered prefix) goes back to waste and the ladder falls
            // through to the thumbnail rung.
            b.ctx.client.demote_salvage(banked_j);
            return Ok(false);
        };
        let s = ssim(&shrunk.to_gray(), &decoded.to_gray())?;
        b.report.uplink_bytes += confirmed;
        b.report.image_bytes += prefix.len();
        b.report.salvaged_images += 1;
        b.report.salvage_ssim_sum += s;
        b.ingest(
            i,
            IngestRequest::partial(PartialImage {
                scans_complete: progress.scans_complete,
                scans_total: progress.scans_total,
                payload_bytes: prefix.len(),
                total_bytes: full.len(),
                ssim_estimate: s,
            })
            .with_bytes(prefix.to_vec())
            .with_features(features.clone()),
        );
        let now = b.ctx.client.now();
        b.ctx
            .telemetry
            .span(names::AIU_SCAN, now)
            .attr_str("scheme", self.kind().as_str())
            .attr_u64("scans", progress.scans_complete as u64)
            .attr_u64("scans_total", progress.scans_total as u64)
            .attr_u64("payload_bytes", prefix.len() as u64)
            .attr_f64("ssim", s)
            .close(now);
        Ok(true)
    }

    /// The degraded rung: a small, low-quality thumbnail; deferral if it
    /// too exhausts its retries.
    fn upload_thumbnail(
        &self,
        b: &mut Batch<'_, '_>,
        i: usize,
        features: &ImageFeatures,
    ) -> Result<()> {
        let (_, payload) = shrink_encode(b, i, THUMBNAIL_RESOLUTION_PROPORTION, None, |thumb| {
            codec::encode_rgb(thumb, THUMBNAIL_QUALITY)
        })?;
        let bytes = wire::image_upload_bytes(payload.len());
        let Delivery::Delivered = b.deliver(EnergyCategory::ImageUpload, bytes, false)? else {
            return self.defer(b, i, features);
        };
        b.report.uplink_bytes += bytes;
        b.report.image_bytes += payload.len();
        b.report.degraded_images += 1;
        b.ingest(
            i,
            IngestRequest::thumbnail(payload.len())
                .with_bytes(payload)
                .with_features(features.clone()),
        );
        Ok(())
    }

    /// Defers image `i`, recording it in the server's on-device catalog
    /// when the batch opted in.
    fn defer(&self, b: &mut Batch<'_, '_>, i: usize, features: &ImageFeatures) -> Result<()> {
        b.report.deferred_images += 1;
        if let Some(device) = b.ctx.deferral_catalog() {
            // The catalog bills a later pull-down for the stored
            // camera-quality photo file; encoding happened at capture, so
            // sizing it costs no CPU here.
            let file_bytes = codec::encoded_rgb_size(&b.ctx.batch[i], self.camera_quality)?;
            b.ingest(
                i,
                IngestRequest::on_device(device, file_bytes).with_features(features.clone()),
            );
        }
        Ok(())
    }
}

/// A resolution-compressed image and its encoding.
type Encoded = (RgbImage, Vec<u8>);

/// Resolution-compresses batch image `i` by `proportion` and `encode`s the
/// result, charging the resize and then the encode before each runs.
/// `guess`, the same two steps run ahead at a predicted proportion, stands
/// in for them when its image has the live compressed dimensions: the
/// resize reads the proportion only through them. Otherwise both steps
/// run here.
fn shrink_encode(
    b: &mut Batch<'_, '_>,
    i: usize,
    proportion: f64,
    guess: Option<Encoded>,
    encode: impl FnOnce(&RgbImage) -> bees_image::Result<Vec<u8>>,
) -> Result<Encoded> {
    let client = &mut *b.ctx.client;
    let model = *client.energy_model();
    let img = &b.ctx.batch[i];
    client.spend_cpu(
        EnergyCategory::Compression,
        model.resize_energy(img.pixel_count()),
    )?;
    let dims = resize::compressed_dimensions(img.width(), img.height(), proportion)?;
    let (shrunk, encoded) = match guess {
        Some((shrunk, encoded)) if shrunk.dimensions() == dims => (shrunk, Some(encoded)),
        _ => (resize::compress_resolution_rgb(img, proportion)?, None),
    };
    client.spend_cpu(
        EnergyCategory::Compression,
        model.encode_energy(shrunk.pixel_count()),
    )?;
    let encoded = match encoded {
        Some(encoded) => encoded,
        None => encode(&shrunk)?,
    };
    Ok((shrunk, encoded))
}

impl UploadScheme for Bees {
    fn kind(&self) -> SchemeKind {
        if self.adaptive {
            SchemeKind::Bees
        } else {
            SchemeKind::BeesEa
        }
    }

    fn upload(&self, ctx: &mut BatchCtx<'_>) -> Result<BatchReport> {
        Batch::run(self.kind(), ctx, |b| self.stages(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::DirectUpload;
    use crate::{ImageRecord, Server};
    use bees_datasets::{disaster_batch, SceneConfig};
    use bees_net::BandwidthTrace;

    fn partials(server: &Server) -> impl Iterator<Item = &PartialImage> {
        server.records().values().filter_map(ImageRecord::partial)
    }

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
    fn eliminates_both_redundancy_kinds() {
        let cfg = config();
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        // 10 images: 2 in-batch extras, 25% cross-batch (2-3 images).
        let data = disaster_batch(31, 10, 2, 0.25, small());
        scheme.preload_server(&mut server, &data.server_preload);
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert!(
            r.skipped_cross_batch >= 1,
            "cross-batch: {}",
            r.skipped_cross_batch
        );
        assert!(r.skipped_in_batch >= 1, "in-batch: {}", r.skipped_in_batch);
        assert_eq!(
            r.uploaded_images + r.skipped_cross_batch + r.skipped_in_batch,
            r.batch_size
        );
    }

    #[test]
    fn uses_far_less_bandwidth_than_direct_even_without_redundancy() {
        let cfg = config();
        // Realistic scene sizes: with tiny test scenes the camera files are
        // no larger than feature payloads and the comparison is meaningless.
        let data = disaster_batch(32, 5, 0, 0.0, SceneConfig::default());

        let mut server1 = Server::try_new(&cfg).unwrap();
        let mut client1 = Client::try_new(0, &cfg).unwrap();
        let rb = Bees::adaptive(&cfg)
            .upload(&mut BatchCtx::new(&mut client1, &mut server1, &data.batch))
            .unwrap();

        let mut server2 = Server::try_new(&cfg).unwrap();
        let mut client2 = Client::try_new(0, &cfg).unwrap();
        let rd = DirectUpload::new(&cfg)
            .upload(&mut BatchCtx::new(&mut client2, &mut server2, &data.batch))
            .unwrap();

        assert!(
            (rb.bandwidth_bytes() as f64) < 0.5 * rd.bandwidth_bytes() as f64,
            "BEES {} vs Direct {}",
            rb.bandwidth_bytes(),
            rd.bandwidth_bytes()
        );
        assert!(rb.active_energy() < rd.active_energy());
    }

    #[test]
    fn low_battery_uploads_smaller_images() {
        let cfg = config();
        let data = disaster_batch(33, 3, 0, 0.0, small());

        let mut server1 = Server::try_new(&cfg).unwrap();
        let mut client1 = Client::try_new(0, &cfg).unwrap();
        let r_full = Bees::adaptive(&cfg)
            .upload(&mut BatchCtx::new(&mut client1, &mut server1, &data.batch))
            .unwrap();

        let mut server2 = Server::try_new(&cfg).unwrap();
        let mut client2 = Client::try_new(0, &cfg).unwrap();
        client2.battery_mut().set_fraction(0.1);
        let r_low = Bees::adaptive(&cfg)
            .upload(&mut BatchCtx::new(&mut client2, &mut server2, &data.batch))
            .unwrap();

        assert!(
            r_low.image_bytes < r_full.image_bytes,
            "low battery {} vs full {}",
            r_low.image_bytes,
            r_full.image_bytes
        );
    }

    #[test]
    fn bees_ea_ignores_battery_level() {
        let cfg = config();
        let data = disaster_batch(34, 3, 0, 0.0, small());

        let run = |fraction: f64| {
            let mut server = Server::try_new(&cfg).unwrap();
            let mut client = Client::try_new(0, &cfg).unwrap();
            client.battery_mut().set_fraction(fraction);
            Bees::without_adaptation(&cfg)
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
                .unwrap()
        };
        let full = run(1.0);
        let low = run(0.3);
        assert_eq!(full.image_bytes, low.image_bytes);
        assert_eq!(full.uploaded_images, low.uploaded_images);
    }

    #[test]
    fn adaptive_saves_energy_at_low_battery_vs_ea() {
        let cfg = config();
        let data = disaster_batch(35, 4, 0, 0.0, small());
        let run = |adaptive: bool| {
            let mut server = Server::try_new(&cfg).unwrap();
            let mut client = Client::try_new(0, &cfg).unwrap();
            client.battery_mut().set_fraction(0.15);
            let scheme = if adaptive {
                Bees::adaptive(&cfg)
            } else {
                Bees::without_adaptation(&cfg)
            };
            scheme
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
                .unwrap()
        };
        let r_adaptive = run(true);
        let r_ea = run(false);
        assert!(
            r_adaptive.active_energy() < r_ea.active_energy(),
            "adaptive {} vs EA {}",
            r_adaptive.active_energy(),
            r_ea.active_energy()
        );
    }

    #[test]
    fn faults_degrade_instead_of_aborting() {
        // A hostile channel (85 % of attempts cut) with a tight retry
        // budget: the batch must still complete without panicking or
        // erroring, every image accounted for as uploaded, degraded,
        // deferred, or skipped, and the failed attempts' energy recorded.
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::new(0xDE6, 0.85, 0.0, 30.0, 10.0).unwrap();
        cfg.retry.max_attempts = 2;
        let data = disaster_batch(44, 6, 1, 0.25, small());
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        scheme.preload_server(&mut server, &data.server_preload);
        let mut client = Client::try_new(0, &cfg).unwrap();
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert!(!r.exhausted);
        assert_eq!(
            r.uploaded_images
                + r.salvaged_images
                + r.degraded_images
                + r.deferred_images
                + r.skipped_cross_batch
                + r.skipped_in_batch,
            r.batch_size,
            "every image must be accounted for: {r:?}"
        );
        assert!(
            r.salvaged_images + r.degraded_images + r.deferred_images > 0,
            "an 85% drop rate with budget 2 must force the ladder down: {r:?}"
        );
        assert!(
            r.wasted_energy() > 0.0,
            "cut attempts must burn recorded energy"
        );
        assert!(r.transfer_attempts >= (r.uploaded_images + r.degraded_images) as u64);
        // The same run twice is byte-identical (fault injection is seeded).
        let mut server2 = Server::try_new(&cfg).unwrap();
        scheme.preload_server(&mut server2, &data.server_preload);
        let mut client2 = Client::try_new(0, &cfg).unwrap();
        let r2 = scheme
            .upload(&mut BatchCtx::new(&mut client2, &mut server2, &data.batch))
            .unwrap();
        assert_eq!(r, r2);
    }

    #[test]
    fn cut_uploads_salvage_partials_and_shrink_the_wasted_bucket() {
        // A hostile channel cuts most attempts and the budget is tight, so
        // full uploads rarely finish. With salvage on, the banked scan
        // prefixes become partial images on the server; with salvage off
        // (the pre-salvage ladder) the same joules are written off as
        // waste. Equal seeds throughout.
        let mut cfg = config();
        cfg.battery = bees_energy::Battery::from_joules(1e9);
        cfg.fault = bees_net::FaultModel::new(0x5A17A6E, 0.9, 0.0, 1e9, 1.0).unwrap();
        // Three attempts whose cuts each bank 5–95% of the *remaining*
        // bytes leave most exhausted transfers with a couple of complete
        // scans; 128-byte chunks keep the banked prefix fine-grained
        // relative to the ~500-byte progressive payloads.
        cfg.retry.max_attempts = 3;
        cfg.retry.chunk_bytes = 128;
        let data = disaster_batch(45, 5, 0, 0.0, small());
        let run = |salvage: bool| {
            let mut c = cfg.clone();
            c.salvage_partials = salvage;
            let scheme = Bees::adaptive(&c);
            let mut server = Server::try_new(&c).unwrap();
            let mut client = Client::try_new(0, &c).unwrap();
            let r = scheme
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
                .unwrap();
            (r, server)
        };
        let (on, srv_on) = run(true);
        let (off, srv_off) = run(false);
        assert!(on.salvaged_images > 0, "no upload salvaged: {on:?}");
        assert!(
            on.salvage_ssim_sum / on.salvaged_images as f64 > 0.5,
            "mean salvage ssim {}",
            on.salvage_ssim_sum / on.salvaged_images as f64
        );
        assert_eq!(partials(&srv_on).count(), on.salvaged_images);
        for (r, label) in [(&on, "on"), (&off, "off")] {
            assert_eq!(
                r.uploaded_images
                    + r.salvaged_images
                    + r.degraded_images
                    + r.deferred_images
                    + r.skipped_cross_batch
                    + r.skipped_in_batch,
                r.batch_size,
                "conservation with salvage {label}: {r:?}"
            );
        }
        assert_eq!(off.salvaged_images, 0);
        assert_eq!(partials(&srv_off).count(), 0);
        assert!(
            on.wasted_energy() + 1e-9 < off.wasted_energy(),
            "salvage must strictly shrink waste: on {} vs off {}",
            on.wasted_energy(),
            off.wasted_energy()
        );
    }

    #[test]
    fn partial_scans_tier_uploads_a_prefix_per_image() {
        let cfg = config();
        let data = disaster_batch(46, 4, 0, 0.0, small());
        let run = |tier: UploadTier| {
            let scheme = Bees::adaptive(&cfg);
            let mut server = Server::try_new(&cfg).unwrap();
            let mut client = Client::try_new(0, &cfg).unwrap();
            let r = scheme
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch).with_tier(tier))
                .unwrap();
            (r, server)
        };
        let (full, _) = run(UploadTier::Full);
        let (partial, srv) = run(UploadTier::PartialScans);
        assert_eq!(partial.uploaded_images, 0);
        assert_eq!(
            partial.salvaged_images, full.uploaded_images,
            "every would-be full upload lands as a partial: {partial:?}"
        );
        assert_eq!(partials(&srv).count(), partial.salvaged_images);
        assert!(
            partial.uplink_bytes < full.uplink_bytes,
            "the prefix tier must spend less airtime: {} vs {}",
            partial.uplink_bytes,
            full.uplink_bytes
        );
        for p in partials(&srv) {
            assert!(p.payload_bytes < p.total_bytes, "{p:?}");
            assert!(p.scans_complete >= 1, "{p:?}");
        }
    }

    #[test]
    fn thumbnail_tier_skips_the_full_attempt() {
        let cfg = config();
        let data = disaster_batch(47, 4, 0, 0.0, small());
        let run = |tier: UploadTier| {
            let scheme = Bees::adaptive(&cfg);
            let mut server = Server::try_new(&cfg).unwrap();
            let mut client = Client::try_new(0, &cfg).unwrap();
            scheme
                .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch).with_tier(tier))
                .unwrap()
        };
        let full = run(UploadTier::Full);
        let thumb = run(UploadTier::Thumbnail);
        assert_eq!(thumb.uploaded_images, 0);
        assert_eq!(thumb.salvaged_images, 0);
        assert_eq!(thumb.degraded_images, full.uploaded_images);
        assert!(
            thumb.uplink_bytes < full.uplink_bytes,
            "thumbnails must spend less airtime: {} vs {}",
            thumb.uplink_bytes,
            full.uplink_bytes
        );
    }

    #[test]
    fn defer_tier_spends_no_radio_energy() {
        let cfg = config();
        let data = disaster_batch(48, 4, 0, 0.0, small());
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let r = scheme
            .upload(
                &mut BatchCtx::new(&mut client, &mut server, &data.batch)
                    .with_tier(UploadTier::Defer),
            )
            .unwrap();
        assert!(r.feature_query_deferred);
        assert_eq!(r.uplink_bytes, 0);
        assert_eq!(r.uploaded_images + r.salvaged_images + r.degraded_images, 0);
        assert!(r.deferred_images > 0);
        assert_eq!(r.energy.get(EnergyCategory::FeatureUpload), 0.0);
        assert_eq!(r.energy.get(EnergyCategory::ImageUpload), 0.0);
        assert_eq!(server.received_images(), 0);
    }

    #[test]
    fn deferral_catalog_records_deferred_images_on_device() {
        let cfg = config();
        let data = disaster_batch(49, 4, 0, 0.0, small());
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let r = scheme
            .upload(
                &mut BatchCtx::new(&mut client, &mut server, &data.batch)
                    .with_tier(UploadTier::Defer)
                    .with_deferral_catalog(7),
            )
            .unwrap();
        assert!(r.deferred_images > 0);
        let cataloged: Vec<_> = server
            .records()
            .values()
            .filter_map(|r| r.on_device())
            .collect();
        assert_eq!(cataloged.len(), r.deferred_images);
        assert!(cataloged.iter().all(|e| e.device_id == 7));
        // The catalog stays invisible to the legacy surface.
        assert_eq!(server.received_images(), 0);
        assert_eq!(server.indexed_images(), 0);
        // Without the opt-in, deferral leaves no trace (the default).
        let mut server2 = Server::try_new(&cfg).unwrap();
        let mut client2 = Client::try_new(0, &cfg).unwrap();
        scheme
            .upload(
                &mut BatchCtx::new(&mut client2, &mut server2, &data.batch)
                    .with_tier(UploadTier::Defer),
            )
            .unwrap();
        assert!(server2.records().is_empty());
    }

    #[test]
    fn uploaded_images_reach_the_server_index() {
        let cfg = config();
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let data = disaster_batch(36, 4, 0, 0.0, small());
        let r = scheme
            .upload(&mut BatchCtx::new(&mut client, &mut server, &data.batch))
            .unwrap();
        assert_eq!(server.received_images(), r.uploaded_images);
        assert_eq!(server.indexed_images(), r.uploaded_images);
        // A second identical batch should now be (mostly) cross-redundant.
        let mut client2 = Client::try_new(1, &cfg).unwrap();
        let r2 = scheme
            .upload(&mut BatchCtx::new(&mut client2, &mut server, &data.batch))
            .unwrap();
        assert!(
            r2.skipped_cross_batch >= r.uploaded_images / 2,
            "second pass skipped only {}",
            r2.skipped_cross_batch
        );
    }

    #[test]
    fn stage_spans_cover_the_whole_pipeline() {
        use bees_telemetry::{Aggregator, Telemetry};
        use std::sync::Arc;
        let cfg = config();
        let scheme = Bees::adaptive(&cfg);
        let mut server = Server::try_new(&cfg).unwrap();
        let mut client = Client::try_new(0, &cfg).unwrap();
        let data = disaster_batch(37, 4, 1, 0.25, small());
        scheme.preload_server(&mut server, &data.server_preload);
        let agg = Arc::new(Aggregator::new());
        let mut ctx = BatchCtx::new(&mut client, &mut server, &data.batch)
            .with_telemetry(Telemetry::with_sinks(vec![agg.clone()]));
        let r = scheme.upload(&mut ctx).unwrap();
        let stages: Vec<&str> = agg.snapshot().iter().map(|(name, _)| *name).collect();
        for expected in [
            names::AFE_ORB,
            names::ARD_QUERY,
            names::ARD_SSMM,
            names::AIU_ENCODE,
            names::NET_TRANSMIT,
            names::SRV_QUERY,
        ] {
            assert!(stages.contains(&expected), "missing {expected}: {stages:?}");
        }
        // Stage joules sum to (almost) the ledger's active total: the four
        // stage spans partition the pipeline.
        let stage_joules: f64 = agg
            .snapshot()
            .iter()
            .filter(|(name, _)| {
                matches!(*name, "afe.orb" | "ard.query" | "ard.ssmm" | "aiu.encode")
            })
            .map(|(_, s)| s.joules)
            .sum();
        assert!(
            (stage_joules - r.energy.total()).abs() < 1e-6,
            "stages {} vs ledger {}",
            stage_joules,
            r.energy.total()
        );
    }
}
