//! The stages every scheme is built from.
//!
//! The traditional architecture of the paper's Fig. 1 extracts features,
//! uploads them, gets one redundancy verdict per image, and uploads the
//! unique images verbatim; Direct Upload, PhotoNet-like, SmartEye and MRC
//! are instances of it. BEES (Fig. 2) shares its extraction and feature
//! query and replaces the verbatim upload with AIU's degradation ladder.
//! Each stage is a method of [`Batch`], and every transfer goes through
//! [`Batch::deliver`], the one writer of the report's attempt and
//! CRC-catch counters.

use crate::schemes::{BatchCtx, SchemeKind, CAMERA_QUALITY};
use crate::{
    BatchReport, Client, CoreError, IngestRequest, Result, ResumableOutcome, RetrievalQuery,
    SalvageSummary,
};
use bees_energy::{model, EnergyCategory};
use bees_features::{ExtractorKind, FeatureExtractor, ImageFeatures};
use bees_image::{codec, resize, GrayImage, RgbImage};
use bees_net::{wire, NetError};
use bees_telemetry::names;

/// A batch upload in progress: the scheme's context and the report its
/// stages book into.
pub(crate) struct Batch<'c, 'a> {
    pub ctx: &'c mut BatchCtx<'a>,
    pub report: BatchReport,
    kind: SchemeKind,
    start: f64,
}

/// How a [`Batch::deliver`] call ended.
pub(crate) enum Delivery {
    /// Every byte was confirmed.
    Delivered,
    /// The retry budget ran out with whole chunks banked; the summary says
    /// how much of the payload survived for partial decoding.
    Salvaged(SalvageSummary),
    /// The retry budget ran out and the payload was given up on; the batch
    /// continues (graceful degradation instead of an aborted run).
    Deferred,
}

impl<'c, 'a> Batch<'c, 'a> {
    /// Runs a scheme's `stages` over a fresh ledger and report. If the
    /// battery dies mid-batch, the report of the completed prefix comes
    /// back with [`BatchReport::exhausted`] set; other errors propagate.
    pub fn run(
        kind: SchemeKind,
        ctx: &'c mut BatchCtx<'a>,
        stages: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<BatchReport> {
        let report = BatchReport::new(kind.to_string(), ctx.batch.len());
        ctx.client.reset_ledger();
        let start = ctx.client.now();
        let mut batch = Batch {
            ctx,
            report,
            kind,
            start,
        };
        match stages(&mut batch) {
            Ok(()) => batch.report.total_delay_s = batch.elapsed(),
            Err(CoreError::BatteryExhausted { .. }) => batch.report.exhausted = true,
            Err(other) => return Err(other),
        }
        batch.report.energy = batch.ctx.client.ledger().clone();
        Ok(batch.report)
    }

    /// Virtual seconds since the batch started.
    pub fn elapsed(&self) -> f64 {
        self.ctx.client.now() - self.start
    }

    /// Transmits `bytes` through the resumable transfer stack and books
    /// the attempts it made and the corrupt chunks it caught. With
    /// `salvage`, retry exhaustion with chunks banked comes back
    /// [`Delivery::Salvaged`]; any other retry exhaustion is
    /// [`Delivery::Deferred`], with no catches booked because
    /// [`NetError::RetriesExhausted`] carries no count. Battery exhaustion
    /// and channel errors propagate.
    pub fn deliver(
        &mut self,
        category: EnergyCategory,
        bytes: usize,
        salvage: bool,
    ) -> Result<Delivery> {
        let outcome = self.ctx.client.transmit_resumable(category, bytes, salvage);
        let (attempts, caught, delivery) = match outcome {
            Ok(ResumableOutcome::Complete(s)) => {
                (s.attempts, s.corrupt_chunks_detected, Delivery::Delivered)
            }
            Ok(ResumableOutcome::Salvaged(s)) => {
                (s.attempts, s.corrupt_chunks_detected, Delivery::Salvaged(s))
            }
            Err(CoreError::Net(NetError::RetriesExhausted { attempts, .. })) => {
                (attempts, 0, Delivery::Deferred)
            }
            Err(other) => return Err(other),
        };
        self.report.transfer_attempts += u64::from(attempts);
        self.report.corrupt_chunks_detected += caught;
        Ok(delivery)
    }

    /// Ingests batch image `i` with its geotag, if the batch carries them.
    pub fn ingest(&mut self, i: usize, request: IngestRequest) {
        let geotag = self.ctx.geotag(i);
        self.ctx.server.ingest(request.maybe_geotag(geotag));
    }

    /// Feature extraction (AFE in BEES), one image per runtime task. Each
    /// image's grayscale bitmap is first shrunk by `compression(client)`,
    /// paying for the resize, when a compression is given; `extractor`
    /// then runs and its cost is charged.
    ///
    /// The compression reads the battery after the previous image's
    /// charges, so the fan-out runs on the value read at stage start and
    /// the charges are then replayed in image order (DESIGN.md §6). The
    /// resize reads the compression only through the compressed
    /// dimensions, so an image whose live dimensions differ from the
    /// predicted ones is re-extracted inline, and a battery abort drops
    /// whatever was not replayed.
    pub fn extract(
        &mut self,
        extractor: &dyn FeatureExtractor,
        compression: Option<&dyn Fn(&Client) -> f64>,
    ) -> Result<Vec<ImageFeatures>> {
        let batch = self.ctx.batch;
        let client = &mut *self.ctx.client;
        let (t0, j0) = (client.now(), client.ledger().total());
        let bitmap = |img: &RgbImage, c: Option<f64>| -> Result<GrayImage> {
            let gray = img.to_gray();
            Ok(match c {
                Some(c) => resize::compress_bitmap(&gray, c)?,
                None => gray,
            })
        };
        let predicted = compression.map(|eac| eac(client));
        let speculated = bees_runtime::par_map(batch, |img| {
            let gray = bitmap(img, predicted).ok()?;
            Some((gray.dimensions(), extractor.extract_with_stats(&gray)))
        });
        let mut features = Vec::with_capacity(batch.len());
        for (img, guess) in batch.iter().zip(speculated) {
            let c = compression.map(|eac| eac(client));
            let mut dims = img.dimensions();
            if let Some(c) = c {
                let resize_j = model::resize_energy(img.pixel_count());
                client.spend_cpu(EnergyCategory::Compression, resize_j)?;
                dims = resize::compressed_dimensions(dims.0, dims.1, c)?;
            }
            let (f, stats) = match guess {
                Some((at, extracted)) if at == dims => extracted,
                _ => extractor.extract_with_stats(&bitmap(img, c)?),
            };
            let extract_j = model::extraction_energy(extractor.kind(), &stats);
            client.spend_cpu(EnergyCategory::FeatureExtraction, extract_j)?;
            features.push(f);
        }
        self.ctx
            .telemetry
            .span(names::AFE_ORB, t0)
            .attr_str("scheme", self.kind.as_str())
            .attr_str("extractor", extractor_name(extractor.kind()))
            .attr_u64("images", batch.len() as u64)
            .attr_f64("joules", client.ledger().total() - j0)
            .close(client.now());
        Ok(features)
    }

    /// The feature query (CBRD in BEES): uploads a `payload`-byte feature
    /// set and receives one verdict per image. Image `i` is redundant when
    /// its top-1 server score under the `i`-th probe exceeds `threshold`,
    /// which is read after the receive. With `thumbnail_feedback` (MRC),
    /// the server then returns a thumbnail per redundant image for the
    /// client to confirm. A `skip`ped or deferred query degrades
    /// gracefully: no image is redundant.
    pub fn query<'q>(
        &mut self,
        payload: usize,
        probes: impl IntoIterator<Item = RetrievalQuery<'q>>,
        threshold: impl FnOnce(&Client) -> f64,
        skip: bool,
        thumbnail_feedback: bool,
    ) -> Result<Vec<bool>> {
        let (t0, j0) = (self.ctx.client.now(), self.ctx.client.ledger().total());
        let bytes = wire::feature_query_bytes(payload);
        let mut redundant = vec![false; self.ctx.batch.len()];
        if !skip
            && matches!(
                self.deliver(EnergyCategory::FeatureUpload, bytes, false)?,
                Delivery::Delivered
            )
        {
            self.report.uplink_bytes += bytes;
            self.report.feature_bytes += payload;
            let verdict_bytes = wire::query_response_bytes(redundant.len());
            self.ctx.client.receive(verdict_bytes)?;
            self.report.downlink_bytes += verdict_bytes;
            let t = threshold(self.ctx.client);
            for (flag, probe) in redundant.iter_mut().zip(probes) {
                let answer = self.ctx.server.answer(&probe.top_k(1));
                *flag = answer.hits.first().is_some_and(|hit| hit.score > t);
            }
        } else {
            self.report.feature_query_deferred = true;
        }
        let n_redundant = redundant.iter().filter(|&&r| r).count();
        self.report.skipped_cross_batch = n_redundant;
        if thumbnail_feedback && n_redundant > 0 {
            let thumb_bytes = wire::thumbnail_feedback_bytes(n_redundant);
            self.ctx.client.receive(thumb_bytes)?;
            self.report.downlink_bytes += thumb_bytes;
        }
        self.ctx
            .telemetry
            .span(names::ARD_QUERY, t0)
            .attr_str("scheme", self.kind.as_str())
            .attr_u64("bytes", bytes as u64)
            .attr_u64("redundant", n_redundant as u64)
            .attr_bool("deferred", self.report.feature_query_deferred)
            .attr_f64("joules", self.ctx.client.ledger().total() - j0)
            .close(self.ctx.client.now());
        Ok(redundant)
    }

    /// The verbatim upload of Fig. 1: sends image `i`'s stored photo file
    /// (encoded at [`CAMERA_QUALITY`] at capture time, so no CPU is
    /// charged) and ingests it in full, under the key `keyed` attaches. A
    /// transfer that exhausts its retries defers the image.
    pub fn upload_verbatim(
        &mut self,
        i: usize,
        keyed: impl FnOnce(IngestRequest) -> IngestRequest,
    ) -> Result<()> {
        let payload = codec::encoded_rgb_size(&self.ctx.batch[i], CAMERA_QUALITY)?;
        let bytes = wire::image_upload_bytes(payload);
        if let Delivery::Delivered = self.deliver(EnergyCategory::ImageUpload, bytes, false)? {
            self.report.uplink_bytes += bytes;
            self.report.image_bytes += payload;
            self.report.uploaded_images += 1;
            self.ingest(i, keyed(IngestRequest::full(payload)));
        } else {
            self.report.deferred_images += 1;
        }
        Ok(())
    }

    /// Fig. 1 with a local-feature extractor (SmartEye, MRC): extraction
    /// on the full-resolution bitmaps, a feature query at the fixed
    /// `threshold`, then a verbatim upload of each unique image, indexed
    /// under its features.
    pub fn traditional(
        &mut self,
        extractor: &dyn FeatureExtractor,
        threshold: f64,
        thumbnail_feedback: bool,
    ) -> Result<()> {
        let features = self.extract(extractor, None)?;
        let redundant = self.query(
            features.iter().map(ImageFeatures::wire_size).sum(),
            features.iter().map(|f| RetrievalQuery::new().similar_to(f)),
            |_| threshold,
            false,
            thumbnail_feedback,
        )?;
        for (i, f) in features.into_iter().enumerate() {
            if !redundant[i] {
                self.upload_verbatim(i, |request| request.with_features(f))?;
            }
        }
        Ok(())
    }
}

/// The extractor's stable trace label (no allocation — span attributes on
/// the hot path must stay free when telemetry is disabled).
fn extractor_name(kind: ExtractorKind) -> &'static str {
    match kind {
        ExtractorKind::Orb => "ORB",
        ExtractorKind::Sift => "SIFT",
        ExtractorKind::PcaSift => "PCA-SIFT",
    }
}
