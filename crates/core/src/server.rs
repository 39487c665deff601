//! The cloud server: sharded feature index plus one record per image.
//!
//! The index is partitioned over [`BeesConfig::server_shards`] shards (see
//! `DESIGN.md` §9): uploads buffer into a *pending epoch* and are committed
//! to all shards in one parallel batch the moment the next query arrives.
//! Every scheme issues all of a batch's redundancy queries before any of
//! its ingests, so epoch boundaries always fall between batches and the
//! results are identical to immediate insertion — while ingest cost scales
//! with the shard count.

use crate::config::{BeesConfig, IndexBackend};
use crate::ingest::{IngestKind, IngestOutcome, IngestReceipt, IngestRequest, PreloadBatch};
use crate::retrieval::{
    rank_retrieval_hits, Provenance, RetrievalHit, RetrievalQuery, RetrievalResult,
};
use bees_features::global::ColorHistogram;
use bees_features::orb::Orb;
use bees_features::similarity::jaccard_similarity;
use bees_features::{Descriptors, ImageFeatures};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex, Query, QueryScratch, ShardedIndex};
use bees_store::{
    ContentStore, Fidelity, Fnv64, InsertOutcome, RecompressionReport, StorageConfig, StorePayload,
};
use bees_telemetry::{names, Telemetry};
use std::collections::BTreeMap;

/// The server side of the system.
///
/// Holds the feature index used by Cross-Batch Redundancy Detection and
/// counts what it has received. Per the paper, server resources are assumed
/// plentiful: server-side CPU is not charged to any battery and query time
/// is excluded from the delay metric.
pub struct Server {
    index: Box<dyn FeatureIndex>,
    /// Recycled per-query buffers (merge heaps, candidate lists, per-shard
    /// children) threaded through every feature query; contents never
    /// influence results.
    scratch: QueryScratch,
    n_shards: usize,
    /// Features ingested since the last query; committed to all shards in
    /// one parallel `insert_batch` when the next query arrives.
    pending: Vec<(ImageId, ImageFeatures)>,
    orb: Orb,
    next_id: u64,
    received_image_bytes: usize,
    queries_served: usize,
    /// The fleet's virtual clock, installed by [`Server::set_time`]; `None`
    /// until a session installs one (ingests then carry no time and never
    /// satisfy a retrieval time-window predicate).
    clock_s: Option<f64>,
    /// Every id the server handed out — uploads, preloads and catalog
    /// entries — with its tier, geotag, time and histogram.
    records: BTreeMap<ImageId, ImageRecord>,
    /// The content-addressed storage tier: every ingest files its payload
    /// (or size-only stub) here; epoch commits group near-duplicates and
    /// snapshot the capacity ledger.
    store: ContentStore,
    storage_config: StorageConfig,
    telemetry: Telemetry,
}

/// What the server knows about one image id.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageRecord {
    /// Where the image's payload stands.
    pub tier: ImageTier,
    /// Capture geotag, when the upload or catalog entry carried one.
    pub geotag: Option<(f64, f64)>,
    /// Virtual ingest (or cataloging) time, when the clock was set.
    pub time_s: Option<f64>,
    /// Global color histogram, the key of histogram retrieval probes.
    /// Catalog entries never keep one.
    pub histogram: Option<ColorHistogram>,
}

/// The payload tier of an [`ImageRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum ImageTier {
    /// The server holds the full-fidelity payload (an upload, an upgraded
    /// partial, or a fulfilled pull-down).
    Full,
    /// The server holds only the degraded thumbnail rung.
    Thumbnail,
    /// The server holds a salvaged scan prefix awaiting its tail.
    Partial(PartialImage),
    /// The payload still lives on the capturing device.
    OnDevice(OnDeviceImage),
    /// Staged by [`Server::preload`]: indexed or histogram-probed, but
    /// never received.
    Preloaded,
}

impl ImageRecord {
    fn preloaded(histogram: Option<ColorHistogram>) -> Self {
        ImageRecord {
            tier: ImageTier::Preloaded,
            geotag: None,
            time_s: None,
            histogram,
        }
    }

    /// The salvage bookkeeping, when the image is a pending partial.
    pub fn partial(&self) -> Option<&PartialImage> {
        match &self.tier {
            ImageTier::Partial(p) => Some(p),
            _ => None,
        }
    }

    /// The catalog entry, when the payload is still on a device.
    pub fn on_device(&self) -> Option<&OnDeviceImage> {
        match &self.tier {
            ImageTier::OnDevice(entry) => Some(entry),
            _ => None,
        }
    }

    /// Whether the payload reached the server (neither a preload nor a
    /// catalog entry) — the images `received_images` counts.
    pub fn is_received(&self) -> bool {
        matches!(
            self.tier,
            ImageTier::Full | ImageTier::Thumbnail | ImageTier::Partial(_)
        )
    }

    /// Where this image's pixels live, as retrieval reports it. Preloads
    /// read as full-fidelity.
    fn provenance(&self) -> Provenance {
        match &self.tier {
            ImageTier::Full | ImageTier::Preloaded => Provenance::Full,
            ImageTier::Thumbnail => Provenance::ThumbnailOnly,
            ImageTier::Partial(p) => Provenance::SalvagedPartial {
                scans_complete: p.scans_complete,
                scans_total: p.scans_total,
            },
            ImageTier::OnDevice(entry) => Provenance::OnDevice {
                device_id: entry.device_id,
            },
        }
    }

    fn hit(&self, id: ImageId, score: f64) -> RetrievalHit {
        RetrievalHit {
            id,
            score,
            provenance: self.provenance(),
            geotag: self.geotag,
            time_s: self.time_s,
        }
    }
}

/// A deferred image's catalog entry: the fleet session recorded that a
/// device captured (and feature-extracted) an image it could not afford to
/// upload. Retrieval can match the entry and the pull-down path can fetch
/// the payload on demand. Its geotag and time live on the [`ImageRecord`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnDeviceImage {
    /// The device holding the payload.
    pub device_id: u64,
    /// Features extracted client-side (the same ones CBRD would upload).
    pub features: ImageFeatures,
    /// Estimated full-fidelity payload size, in bytes.
    pub est_bytes: usize,
}

/// Bookkeeping for a salvaged progressive upload: the server holds a
/// decodable scan prefix and can upgrade it in place when a later session
/// delivers the tail scans.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialImage {
    /// Progressive scans fully received (≥ 1: the DC scan decoded).
    pub scans_complete: usize,
    /// Scans a complete stream carries.
    pub scans_total: usize,
    /// Decodable payload bytes banked so far.
    pub payload_bytes: usize,
    /// Bytes of the complete encoded stream.
    pub total_bytes: usize,
    /// SSIM of the partial reconstruction against the full-quality encode,
    /// as estimated by the uploading client.
    pub ssim_estimate: f64,
}

/// How many neighbors an epoch-commit grouping probe retrieves: enough to
/// skip the image itself and any interleaved preloads (which hold no stored
/// payload and therefore cannot anchor a group).
const GROUPING_PROBE_K: usize = 8;

fn build_index(config: &BeesConfig) -> Box<dyn FeatureIndex> {
    let similarity = config.similarity;
    let radius = config.mih_probe_radius;
    match (config.index_backend, config.server_shards) {
        (IndexBackend::Linear, 1) => Box::new(LinearIndex::new(similarity)),
        (IndexBackend::Linear, n) => Box::new(ShardedIndex::with_shards(n, || {
            LinearIndex::new(similarity)
        })),
        (IndexBackend::Mih, 1) => Box::new(MihIndex::new(similarity).with_probe_radius(radius)),
        (IndexBackend::Mih, n) => Box::new(ShardedIndex::with_shards(n, || {
            MihIndex::new(similarity).with_probe_radius(radius)
        })),
    }
}

impl Server {
    /// Creates an empty server configured like the clients.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig)
    /// when the configuration fails [`BeesConfig::validate`] — in
    /// particular `server_shards == 0` or an out-of-range
    /// `mih_probe_radius`.
    pub fn try_new(config: &BeesConfig) -> crate::Result<Server> {
        config.validate()?;
        Ok(Server {
            index: build_index(config),
            scratch: QueryScratch::new(),
            n_shards: config.server_shards,
            pending: Vec::new(),
            orb: Orb::new(config.orb),
            next_id: 0,
            received_image_bytes: 0,
            queries_served: 0,
            clock_s: None,
            records: BTreeMap::new(),
            store: ContentStore::new(),
            storage_config: config.storage.clone(),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Creates a server from the default configuration, which is valid by
    /// construction. Use [`Server::try_new`] for any custom configuration.
    pub fn new() -> Self {
        Server::try_new(&BeesConfig::default()).expect("default config is valid")
    }

    /// The telemetry handle `srv.*` events are emitted through (disabled by
    /// default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Installs a telemetry handle. The server has no clock of its own, so
    /// its events carry `t = 0.0`; per the paper, server time is excluded
    /// from the delay metric anyway.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Number of index shards this server partitions images over.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of index queries answered so far (similarity, top-k, and
    /// histogram queries).
    pub fn queries_served(&self) -> usize {
        self.queries_served
    }

    fn fresh_id(&mut self) -> ImageId {
        let id = ImageId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Commits the pending epoch: one parallel `insert_batch` over all
    /// shards. Called from every feature-query path, so queries never see a
    /// partially ingested epoch.
    ///
    /// After the commit, each newly indexed image that carries a stored
    /// payload joins its best already-stored neighbor's near-duplicate
    /// group (when the similarity clears `storage.group_threshold`), and
    /// the storage ledger takes an epoch snapshot. The grouping probes go
    /// straight to the index — they are bookkeeping, not served queries,
    /// so `queries_served` and the `srv.query` telemetry stay untouched.
    fn commit_epoch(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let batch = std::mem::take(&mut self.pending);
        let images = batch.len();
        let to_group: Vec<(ImageId, ImageFeatures)> = batch
            .iter()
            .filter(|(id, f)| !f.is_empty() && self.store.contains(id.0))
            .cloned()
            .collect();
        self.index.insert_batch(batch);
        for (id, features) in &to_group {
            let query = Query::top_k(features, GROUPING_PROBE_K);
            let hits = self.index.query_with_scratch(&query, &mut self.scratch);
            let neighbor = hits.iter().find(|h| {
                h.id != *id
                    && h.similarity >= self.storage_config.group_threshold
                    && self.store.contains(h.id.0)
            });
            if let Some(best) = neighbor {
                self.store.merge_groups(id.0, best.id.0);
            }
        }
        self.store.commit_epoch();
        if self.n_shards > 1 {
            self.telemetry
                .event(names::SRV_SHARD_COMMIT, 0.0)
                .attr_u64("images", images as u64)
                .attr_u64("shards", self.n_shards as u64)
                .close(0.0);
        }
    }

    /// Pre-loads images to stage a target cross-batch redundancy ratio:
    /// into the feature index (with the server's ORB or the batch's
    /// explicit extractor) or as global histograms only — see
    /// [`PreloadBatch`]. Feature preloads commit the epoch immediately;
    /// histogram preloads never touch the index. Either way each image
    /// gets a [`ImageTier::Preloaded`] record. Features are extracted one
    /// image per runtime task; ids follow the image order.
    pub fn preload(&mut self, batch: PreloadBatch<'_>) {
        if batch.histograms_only {
            for img in batch.images {
                let h = ColorHistogram::from_image(img);
                let id = self.fresh_id();
                self.records.insert(id, ImageRecord::preloaded(Some(h)));
            }
            return;
        }
        let extractor = batch.extractor.unwrap_or(&self.orb);
        let extracted =
            bees_runtime::par_map(batch.images, |img| extractor.extract(&img.to_gray()));
        for features in extracted {
            let id = self.fresh_id();
            self.records.insert(id, ImageRecord::preloaded(None));
            self.pending.push((id, features));
        }
        self.commit_epoch();
    }

    /// Installs the fleet's virtual clock. Subsequent ingests are stamped
    /// with this time so retrieval time-window predicates can filter them;
    /// until the first call, ingests carry no time.
    pub fn set_time(&mut self, t_s: f64) {
        self.clock_s = Some(t_s);
    }

    /// Resolves the query's geo/time predicates against the records into a
    /// sorted id allow-list — `None` when a similarity probe runs
    /// unfiltered over the whole index. This is the list that gets pushed
    /// below the shard merge. Only received images qualify: catalog
    /// entries are matched by the opt-in catalog pass alone.
    fn resolve_filters(&self, query: &RetrievalQuery<'_>) -> Option<Vec<ImageId>> {
        let filtered = query.has_filter();
        if query.has_probe() && !filtered {
            return None;
        }
        // An unconstrained browse lists every image with a geotag or time.
        let keep = |r: &ImageRecord| {
            if filtered {
                query.passes_filters(r.geotag, r.time_s)
            } else {
                r.geotag.is_some() || r.time_s.is_some()
            }
        };
        Some(
            self.records
                .iter()
                .filter(|(_, r)| r.is_received() && keep(r))
                .map(|(&id, _)| id)
                .collect(),
        )
    }

    /// Executes a responder query: geo/time predicates are resolved into an
    /// allow-list pushed below the shard merge, the similarity probe (if
    /// any) ranks survivors, and — when the query opts in — the on-device
    /// catalog is matched alongside the received images. Hits come back in
    /// the canonical total order (descending score, ascending id), truncated
    /// to the query's `top_k` budget.
    ///
    /// Commits the pending epoch first when a descriptor probe is present.
    pub fn retrieve(
        &mut self,
        query: &RetrievalQuery<'_>,
        scratch: &mut QueryScratch,
    ) -> RetrievalResult {
        let allowed = self.resolve_filters(query);
        let mut hits: Vec<RetrievalHit> = Vec::new();
        let mut candidates;
        if let Some(features) = query.features {
            self.commit_epoch();
            candidates = allowed.as_ref().map_or(self.index.len(), Vec::len);
            let k = if query.top_k == 0 {
                usize::MAX
            } else {
                query.top_k
            };
            let mut iq = Query::top_k(features, k).with_max_candidates(query.max_candidates);
            if let Some(ids) = allowed.as_deref() {
                iq = iq.with_allowed(ids);
            }
            let index_hits = self.index.query_with_scratch(&iq, scratch);
            self.telemetry
                .event(names::SRV_QUERY, 0.0)
                .attr_u64("indexed", self.index.len() as u64)
                .attr_bool("hit", !index_hits.is_empty())
                .close(0.0);
            if self.n_shards > 1 {
                self.telemetry
                    .event(names::SRV_SHARD_QUERY, 0.0)
                    .attr_u64("shards", self.n_shards as u64)
                    .close(0.0);
            }
            for h in index_hits {
                hits.push(self.records[&h.id].hit(h.id, h.similarity));
            }
        } else if let Some(probe) = query.histogram {
            let mut stored = 0;
            for (&id, record) in &self.records {
                let Some(h) = &record.histogram else {
                    continue;
                };
                stored += 1;
                if let Some(ids) = allowed.as_deref() {
                    if ids.binary_search(&id).is_err() {
                        continue;
                    }
                }
                let s = probe.intersection(h);
                if s > 0.0 {
                    hits.push(record.hit(id, s));
                }
            }
            candidates = allowed.as_ref().map_or(stored, Vec::len);
        } else {
            // Predicate-only: every allowed image is a hit, ranked by
            // geographic proximity (or id order for pure time windows).
            let ids = allowed.as_deref().unwrap_or(&[]);
            candidates = ids.len();
            for &id in ids {
                let record = &self.records[&id];
                hits.push(record.hit(id, query.filter_score(record.geotag)));
            }
        }
        if query.on_device {
            for (&id, record) in &self.records {
                let Some(entry) = record.on_device() else {
                    continue;
                };
                candidates += 1;
                if !query.passes_filters(record.geotag, record.time_s) {
                    continue;
                }
                let score = if let Some(f) = query.features {
                    let s = jaccard_similarity(f, &entry.features, self.index.similarity_config());
                    if s <= 0.0 {
                        continue;
                    }
                    s
                } else if query.histogram.is_some() {
                    // The catalog stores descriptors only; a histogram
                    // probe has nothing to score against.
                    continue;
                } else {
                    query.filter_score(record.geotag)
                };
                hits.push(record.hit(id, score));
            }
        }
        rank_retrieval_hits(&mut hits, query.top_k);
        let on_device_matches = hits
            .iter()
            .filter(|h| matches!(h.provenance, Provenance::OnDevice { .. }))
            .count();
        self.queries_served += 1;
        self.telemetry
            .event(names::SRV_RETRIEVE, 0.0)
            .attr_u64("hits", hits.len() as u64)
            .attr_u64("candidates", candidates as u64)
            .attr_u64("on_device", on_device_matches as u64)
            .close(0.0);
        RetrievalResult {
            hits,
            candidates_considered: candidates,
            on_device_matches,
        }
    }

    /// [`Server::retrieve`] with the server's own recycled scratch arena —
    /// the convenience form for callers that don't manage a
    /// [`QueryScratch`] of their own (the schemes' CBRD loop, the fleet
    /// pull-down phase). Results are identical.
    pub fn answer(&mut self, query: &RetrievalQuery<'_>) -> RetrievalResult {
        let mut scratch = std::mem::take(&mut self.scratch);
        let result = self.retrieve(query, &mut scratch);
        self.scratch = scratch;
        result
    }

    /// Executes one write against the unified storage path. Every ingest —
    /// full, thumbnail, partial, catalog record, upgrade, fulfillment —
    /// flows through here: the request names the payload fidelity and
    /// carries whatever the upload included (bytes, features, histogram,
    /// geotag); the receipt reports the id and the storage provenance
    /// (stored fresh / dedup hit / upgraded / fulfilled / cataloged).
    ///
    /// Payloads are filed in the content-addressed [`ContentStore`]: real
    /// bytes are keyed by their own hash, size-only stubs by a content
    /// fingerprint (feature digest, else histogram digest, else the unique
    /// image id). An ingest whose key is already stored becomes a
    /// [`IngestOutcome::DedupHit`] — the uplink counters still account the
    /// payload (the bytes crossed the network), but no new physical bytes
    /// enter the store.
    pub fn ingest(&mut self, request: IngestRequest) -> IngestReceipt {
        let IngestRequest {
            kind,
            bytes,
            features,
            histogram,
            geotag,
        } = request;
        let now = self.clock_s.unwrap_or(0.0);
        let (accounted, fidelity, tier) = match kind {
            IngestKind::Full { payload_bytes } => (payload_bytes, Fidelity::Full, ImageTier::Full),
            IngestKind::Thumbnail { payload_bytes } => {
                (payload_bytes, Fidelity::Thumbnail, ImageTier::Thumbnail)
            }
            IngestKind::Partial { partial } => (
                partial.payload_bytes,
                Fidelity::Partial,
                ImageTier::Partial(partial),
            ),
            IngestKind::OnDevice {
                device_id,
                est_bytes,
            } => {
                let id = self.fresh_id();
                let fingerprint = content_fingerprint(id, features.as_ref(), histogram.as_ref());
                let entry = OnDeviceImage {
                    device_id,
                    features: features.unwrap_or_else(ImageFeatures::empty_binary),
                    est_bytes,
                };
                // The histogram only keys the fingerprint: the catalog
                // answers descriptor and predicate probes, never histograms.
                self.records.insert(
                    id,
                    ImageRecord {
                        tier: ImageTier::OnDevice(entry),
                        geotag,
                        time_s: self.clock_s,
                        histogram: None,
                    },
                );
                self.store.insert(
                    id.0,
                    StorePayload::Size {
                        size: est_bytes,
                        fingerprint,
                    },
                    Fidelity::OnDevice,
                    now,
                );
                return IngestReceipt {
                    id,
                    outcome: IngestOutcome::Cataloged,
                    accounted_bytes: 0,
                };
            }
            IngestKind::Upgrade { id } => return self.upgrade(id, now),
            IngestKind::Fulfill { id } => return self.fulfill(id, now),
        };
        let id = self.fresh_id();
        let fingerprint = content_fingerprint(id, features.as_ref(), histogram.as_ref());
        self.received_image_bytes += accounted;
        let event = self
            .telemetry
            .event(names::SRV_INGEST, 0.0)
            .attr_u64("image", id.0)
            .attr_u64("bytes", accounted as u64);
        let event = match &tier {
            ImageTier::Partial(p) => event
                .attr_bool("partial", true)
                .attr_u64("scans", p.scans_complete as u64),
            _ => event,
        };
        event.close(0.0);
        self.records.insert(
            id,
            ImageRecord {
                tier,
                geotag,
                time_s: self.clock_s,
                histogram,
            },
        );
        if let Some(f) = features {
            self.pending.push((id, f));
        }
        let payload = match bytes {
            Some(b) => {
                debug_assert_eq!(
                    b.len(),
                    accounted,
                    "attached bytes must be the accounted payload"
                );
                StorePayload::Bytes(b)
            }
            None => StorePayload::Size {
                size: accounted,
                fingerprint,
            },
        };
        let outcome = match self.store.insert(id.0, payload, fidelity, now) {
            InsertOutcome::Stored { .. } => IngestOutcome::Stored,
            InsertOutcome::DedupHit => IngestOutcome::DedupHit,
        };
        IngestReceipt {
            id,
            outcome,
            accounted_bytes: accounted,
        }
    }

    /// Tail delivery: a pending partial becomes full-fidelity in place and
    /// only the tail bytes are newly accounted.
    fn upgrade(&mut self, id: ImageId, now: f64) -> IngestReceipt {
        let Some(record) = self.records.get_mut(&id) else {
            return IngestReceipt::no_op(id);
        };
        let ImageTier::Partial(partial) = &record.tier else {
            return IngestReceipt::no_op(id);
        };
        let tail = partial.total_bytes.saturating_sub(partial.payload_bytes);
        record.tier = ImageTier::Full;
        self.received_image_bytes += tail;
        self.telemetry
            .event(names::SRV_INGEST, 0.0)
            .attr_u64("image", id.0)
            .attr_u64("bytes", tail as u64)
            .attr_bool("upgrade", true)
            .close(0.0);
        self.store.upgrade(id.0, tail, now);
        IngestReceipt {
            id,
            outcome: IngestOutcome::Upgraded,
            accounted_bytes: tail,
        }
    }

    /// Pull-down delivery: a catalog entry becomes a full-fidelity received
    /// image under the same id, keeping its geotag and cataloging time; its
    /// features stage for the next epoch commit.
    fn fulfill(&mut self, id: ImageId, now: f64) -> IngestReceipt {
        let Some(record) = self.records.get_mut(&id) else {
            return IngestReceipt::no_op(id);
        };
        let entry = match std::mem::replace(&mut record.tier, ImageTier::Full) {
            ImageTier::OnDevice(entry) => entry,
            other => {
                record.tier = other;
                return IngestReceipt::no_op(id);
            }
        };
        self.pending.push((id, entry.features));
        self.received_image_bytes += entry.est_bytes;
        self.telemetry
            .event(names::SRV_INGEST, 0.0)
            .attr_u64("image", id.0)
            .attr_u64("bytes", entry.est_bytes as u64)
            .attr_bool("pulldown", true)
            .close(0.0);
        self.store.fulfill(id.0, entry.est_bytes, now);
        IngestReceipt {
            id,
            outcome: IngestOutcome::Fulfilled,
            accounted_bytes: entry.est_bytes,
        }
    }

    /// The content-addressed storage tier: blobs, near-duplicate groups,
    /// and the capacity ledger.
    pub fn storage(&self) -> &ContentStore {
        &self.store
    }

    /// Runs the cold-recompression pass at the fleet's current virtual
    /// time, with the configured gates (`storage.recompress_*`): blobs
    /// untouched for the configured age whose near-duplicate group holds
    /// enough redundant members are re-encoded at the lower quality tier.
    /// The reclaimed bytes land in the storage ledger.
    pub fn run_cold_recompression(&mut self) -> RecompressionReport {
        let now = self.clock_s.unwrap_or(0.0);
        self.store.run_recompression(now, &self.storage_config)
    }

    /// Every image record, keyed by id: received images, preloads and the
    /// on-device catalog. Filter by [`ImageRecord::partial`],
    /// [`ImageRecord::on_device`] or [`ImageRecord::is_received`].
    pub fn records(&self) -> &BTreeMap<ImageId, ImageRecord> {
        &self.records
    }

    /// Number of images stored (preloads + uploads), including the pending
    /// epoch.
    pub fn indexed_images(&self) -> usize {
        self.index.len() + self.pending.len()
    }

    /// Number of images actually uploaded or pulled down (excludes preloads
    /// and catalog entries).
    pub fn received_images(&self) -> usize {
        self.records.values().filter(|r| r.is_received()).count()
    }

    /// Total uploaded image payload bytes.
    pub fn received_image_bytes(&self) -> usize {
        self.received_image_bytes
    }

    /// Number of unique geotagged locations among received images — the
    /// paper's coverage metric (Fig. 12).
    pub fn unique_locations(&self) -> usize {
        let mut coords: Vec<(u64, u64)> = self
            .records
            .values()
            .filter(|r| r.is_received())
            .filter_map(|r| r.geotag)
            .map(|(lon, lat)| (lon.to_bits(), lat.to_bits()))
            .collect();
        coords.sort_unstable();
        coords.dedup();
        coords.len()
    }

    /// Stored feature bytes (Table I space overhead), including the pending
    /// epoch.
    pub fn feature_bytes(&self) -> usize {
        self.index.feature_bytes()
            + self
                .pending
                .iter()
                .map(|(_, f)| f.wire_size())
                .sum::<usize>()
    }
}

/// Content fingerprint for size-only stubs: folds the descriptor bytes (or
/// the histogram bins) so identical content dedups across devices; with no
/// content to key on, falls back to the unique image id so distinct images
/// never alias on size alone.
fn content_fingerprint(
    id: ImageId,
    features: Option<&ImageFeatures>,
    histogram: Option<&ColorHistogram>,
) -> u64 {
    let mut h = Fnv64::new();
    if let Some(f) = features.filter(|f| !f.is_empty()) {
        match &f.descriptors {
            Descriptors::Binary(ds) => {
                h.write_u64(1);
                // Little-endian words are the descriptors' bytes in order.
                for &w in ds.words() {
                    h.write_u64(w);
                }
            }
            Descriptors::Vector(ds) => {
                h.write_u64(2);
                for d in ds {
                    for v in d.values() {
                        h.write(&v.to_bits().to_le_bytes());
                    }
                }
            }
        }
    } else if let Some(hist) = histogram {
        h.write_u64(3);
        for c in hist.cells() {
            h.write(&c.to_bits().to_le_bytes());
        }
    } else {
        h.write_u64(4);
        h.write_u64(id.0);
    }
    h.finish()
}

impl Default for Server {
    fn default() -> Self {
        Server::new()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("indexed_images", &self.indexed_images())
            .field("n_shards", &self.n_shards)
            .field("pending", &self.pending.len())
            .field("received_images", &self.received_images())
            .field("received_image_bytes", &self.received_image_bytes)
            .field("records", &self.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use bees_datasets::{Scene, SceneConfig, ViewJitter};
    use bees_features::FeatureExtractor;
    use bees_image::RgbImage;

    fn config() -> BeesConfig {
        BeesConfig::default()
    }

    fn small_scene(seed: u64) -> RgbImage {
        Scene::new(
            seed,
            SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 10,
                texture_amp: 8.0,
            },
        )
        .render(&ViewJitter::identity())
    }

    #[test]
    fn preload_populates_index() {
        let mut s = Server::try_new(&config()).unwrap();
        assert_eq!(s.indexed_images(), 0);
        s.preload(PreloadBatch::new(&[small_scene(1), small_scene(2)]));
        assert_eq!(s.indexed_images(), 2);
        assert_eq!(s.received_images(), 0);
        assert!(s.feature_bytes() > 0);
        // Preloads hold no payload, so the storage tier stays empty.
        assert_eq!(s.storage().blob_count(), 0);
        assert_eq!(s.storage().ledger().stored_bytes, 0);
    }

    #[test]
    fn query_finds_preloaded_similars() {
        let cfg = config();
        let mut s = Server::try_new(&cfg).unwrap();
        let scene = Scene::new(
            5,
            SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 10,
                texture_amp: 8.0,
            },
        );
        s.preload(PreloadBatch::new(&[scene.render(&ViewJitter::identity())]));
        let orb = Orb::new(cfg.orb);
        let other_view = scene.render(&ViewJitter {
            dx: 2.0,
            brightness: 5,
            ..ViewJitter::identity()
        });
        let f = orb.extract(&other_view.to_gray());
        let r = s.answer(&RetrievalQuery::new().similar_to(&f).top_k(1));
        let hit = r.hits.first().expect("similar image indexed");
        assert!(hit.score > 0.1, "similarity {}", hit.score);
        assert_eq!(hit.provenance, Provenance::Full);
        assert_eq!(s.queries_served(), 1);
    }

    #[test]
    fn ingest_tracks_bytes_and_geotags() {
        let mut s = Server::try_new(&config()).unwrap();
        let full = |bytes: usize, geo: (f64, f64)| {
            IngestRequest::full(bytes)
                .with_features(ImageFeatures::empty_binary())
                .with_geotag(geo)
        };
        let id1 = s.ingest(full(1000, (2.32, 48.86))).id;
        let id2 = s.ingest(full(500, (2.32, 48.86))).id;
        let id3 = s.ingest(full(200, (2.33, 48.87))).id;
        assert_ne!(id1, id2);
        assert_ne!(id2, id3);
        assert_eq!(s.received_images(), 3);
        assert_eq!(s.received_image_bytes(), 1700);
        assert_eq!(s.unique_locations(), 2);
        assert_eq!(
            s.records().values().filter(|r| r.geotag.is_some()).count(),
            3
        );
        // Empty features give the store nothing to key on, so distinct
        // images never alias even at equal sizes.
        assert_eq!(s.storage().blob_count(), 3);
        assert_eq!(s.storage().ledger().dedup_hits, 0);
        assert_eq!(s.storage().ledger().stored_bytes, 1700);
    }

    #[test]
    fn mih_backend_works_too() {
        let cfg = BeesConfig {
            index_backend: IndexBackend::Mih,
            ..config()
        };
        let mut s = Server::try_new(&cfg).unwrap();
        s.preload(PreloadBatch::new(&[small_scene(3)]));
        assert_eq!(s.indexed_images(), 1);
    }

    #[test]
    fn try_new_rejects_invalid_config() {
        let cfg = BeesConfig {
            server_shards: 0,
            ..config()
        };
        assert!(matches!(
            Server::try_new(&cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
        let cfg = BeesConfig {
            mih_probe_radius: 3,
            ..config()
        };
        assert!(matches!(
            Server::try_new(&cfg),
            Err(CoreError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn default_server_uses_default_config() {
        let s = Server::new();
        assert_eq!(s.n_shards(), 1);
        assert_eq!(s.indexed_images(), 0);
    }

    #[test]
    fn pending_epoch_commits_on_query() {
        let cfg = BeesConfig {
            server_shards: 4,
            ..config()
        };
        let mut s = Server::try_new(&cfg).unwrap();
        let orb = Orb::new(cfg.orb);
        let f = orb.extract(&small_scene(7).to_gray());
        s.ingest(IngestRequest::full(100).with_features(f.clone()));
        // Pending images count as indexed before the commit...
        assert_eq!(s.indexed_images(), 1);
        assert!(s.feature_bytes() > 0);
        // ...and the query sees them (flushing the epoch first).
        let r = s.answer(&RetrievalQuery::new().similar_to(&f).top_k(1));
        let hit = r.hits.first().expect("just-ingested image");
        assert!((hit.score - 1.0).abs() < 1e-9);
        assert_eq!(s.indexed_images(), 1);
    }

    #[test]
    fn partial_images_are_queryable_and_upgrade_in_place() {
        let cfg = config();
        let mut s = Server::try_new(&cfg).unwrap();
        let orb = Orb::new(cfg.orb);
        let f = orb.extract(&small_scene(9).to_gray());
        let receipt = s.ingest(
            IngestRequest::partial(PartialImage {
                scans_complete: 2,
                scans_total: 5,
                payload_bytes: 4_000,
                total_bytes: 10_000,
                ssim_estimate: 0.7,
            })
            .with_features(f.clone())
            .with_geotag((1.0, 2.0)),
        );
        assert_eq!(receipt.outcome, IngestOutcome::Stored);
        assert_eq!(receipt.accounted_bytes, 4_000);
        let id = receipt.id;
        // The salvaged image answers feature queries like any upload, and
        // retrieval reports its partial provenance.
        let r = s.answer(&RetrievalQuery::new().similar_to(&f).top_k(1));
        let hit = r.hits.first().expect("partial is indexed").clone();
        assert!((hit.score - 1.0).abs() < 1e-9);
        assert_eq!(hit.id, id);
        assert_eq!(
            hit.provenance,
            Provenance::SalvagedPartial {
                scans_complete: 2,
                scans_total: 5
            }
        );
        assert_eq!(s.received_images(), 1);
        assert_eq!(s.received_image_bytes(), 4_000);
        assert_eq!(
            s.records()[&id].partial().map(|p| p.scans_complete),
            Some(2)
        );
        // Tail completion upgrades in place: only the tail bytes are new,
        // and the image stops being partial.
        let up = s.ingest(IngestRequest::upgrade(id));
        assert_eq!(up.outcome, IngestOutcome::Upgraded);
        assert_eq!(up.accounted_bytes, 6_000);
        assert_eq!(s.received_image_bytes(), 10_000);
        assert_eq!(s.received_images(), 1);
        assert_eq!(s.records()[&id].tier, ImageTier::Full);
        // The store promoted the blob and accounted the tail too.
        assert_eq!(s.storage().blob_of(id.0).unwrap().len, 10_000);
        assert_eq!(s.storage().ledger().stored_bytes, 10_000);
        // A second upgrade (or a bogus id) is a no-op.
        assert_eq!(
            s.ingest(IngestRequest::upgrade(id)).outcome,
            IngestOutcome::NoOp
        );
        assert_eq!(
            s.ingest(IngestRequest::upgrade(ImageId(999))).outcome,
            IngestOutcome::NoOp
        );
        assert_eq!(s.received_image_bytes(), 10_000);
    }

    /// The sharded server must answer every query exactly like the
    /// unsharded one over the same uploads.
    #[test]
    fn sharded_server_matches_unsharded() {
        let orb = Orb::new(config().orb);
        let scenes: Vec<RgbImage> = (0..8).map(small_scene).collect();
        let features: Vec<ImageFeatures> =
            scenes.iter().map(|s| orb.extract(&s.to_gray())).collect();

        let mut answers: Vec<Vec<Option<(ImageId, f64)>>> = Vec::new();
        let mut digests: Vec<u64> = Vec::new();
        for shards in [1usize, 2, 4] {
            let cfg = BeesConfig {
                index_backend: IndexBackend::Mih,
                server_shards: shards,
                ..config()
            };
            let mut s = Server::try_new(&cfg).unwrap();
            assert_eq!(s.n_shards(), shards);
            for f in &features {
                s.ingest(IngestRequest::full(10).with_features(f.clone()));
            }
            let hits: Vec<Option<(ImageId, f64)>> = features
                .iter()
                .map(|f| {
                    s.answer(&RetrievalQuery::new().similar_to(f).top_k(1))
                        .hits
                        .first()
                        .map(|h| (h.id, h.score))
                })
                .collect();
            answers.push(hits);
            digests.push(s.storage().layout_digest());
        }
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[2]);
        // The storage tier (blobs, groups, ledger) is shard-invariant too.
        assert_eq!(digests[0], digests[1]);
        assert_eq!(digests[0], digests[2]);
    }

    #[test]
    fn retrieval_filters_by_geo_radius_and_time_window() {
        let mut s = Server::try_new(&config()).unwrap();
        let full = |geo: (f64, f64)| {
            IngestRequest::full(100)
                .with_features(ImageFeatures::empty_binary())
                .with_geotag(geo)
        };
        s.set_time(10.0);
        let a = s.ingest(full((0.0, 0.0))).id;
        s.set_time(20.0);
        let b = s.ingest(full((0.01, 0.0))).id;
        s.set_time(30.0);
        let c = s.ingest(full((10.0, 10.0))).id;
        // A 2 km radius covers a (0 km) and b (~1.1 km), ranked by
        // proximity; c is ~1560 km away.
        let r = s.answer(&RetrievalQuery::new().near(0.0, 0.0, 2.0));
        assert_eq!(r.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(r.candidates_considered, 2);
        assert!(r.hits[0].score > r.hits[1].score);
        // Predicates compose conjunctively.
        let r = s.answer(
            &RetrievalQuery::new()
                .near(0.0, 0.0, 2.0)
                .within_time(15.0, 25.0),
        );
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].id, b);
        assert_eq!(r.hits[0].time_s, Some(20.0));
        // A pure time window matches everything in range, id-ordered.
        let r = s.answer(&RetrievalQuery::new().within_time(0.0, 100.0));
        assert_eq!(
            r.hits.iter().map(|h| h.id).collect::<Vec<_>>(),
            vec![a, b, c]
        );
        // Radius 0 means exact-coordinate match.
        let r = s.answer(&RetrievalQuery::new().near(0.01, 0.0, 0.0));
        assert_eq!(r.hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![b]);
        // The top_k budget caps the ranked list.
        let r = s.answer(&RetrievalQuery::new().within_time(0.0, 100.0).top_k(2));
        assert_eq!(r.hits.len(), 2);
    }

    #[test]
    fn on_device_catalog_is_opt_in_and_fulfillable() {
        let cfg = config();
        let mut s = Server::try_new(&cfg).unwrap();
        let orb = Orb::new(cfg.orb);
        let f = orb.extract(&small_scene(11).to_gray());
        s.set_time(5.0);
        let receipt = s.ingest(
            IngestRequest::on_device(3, 32_000)
                .with_features(f.clone())
                .with_geotag((0.01, 0.0)),
        );
        assert_eq!(receipt.outcome, IngestOutcome::Cataloged);
        assert_eq!(receipt.accounted_bytes, 0);
        let id = receipt.id;
        // Catalog entries occupy no server-side storage until fulfilled.
        assert_eq!(s.storage().ledger().stored_bytes, 0);
        assert_eq!(s.storage().live_bytes(), 0);
        // Invisible to the legacy surface and to opted-out retrieval.
        assert_eq!(s.received_images(), 0);
        assert_eq!(s.indexed_images(), 0);
        assert!(s
            .answer(&RetrievalQuery::new().similar_to(&f))
            .hits
            .is_empty());
        assert!(s.records()[&id].on_device().is_some());
        // Opting in surfaces the match with on-device provenance.
        let r = s.answer(&RetrievalQuery::new().similar_to(&f).include_on_device(true));
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.on_device_matches, 1);
        assert_eq!(r.hits[0].provenance, Provenance::OnDevice { device_id: 3 });
        assert!((r.hits[0].score - 1.0).abs() < 1e-9);
        assert_eq!(r.hits[0].time_s, Some(5.0));
        // Geo predicates apply to catalog entries too.
        let near = RetrievalQuery::new()
            .near(0.01, 0.0, 1.0)
            .include_on_device(true);
        assert_eq!(s.answer(&near).hits.len(), 1);
        let far = RetrievalQuery::new()
            .near(5.0, 5.0, 1.0)
            .include_on_device(true);
        assert!(s.answer(&far).hits.is_empty());
        // Fulfillment ingests under the same id and empties the catalog.
        let fulfilled = s.ingest(IngestRequest::fulfill(id));
        assert_eq!(fulfilled.outcome, IngestOutcome::Fulfilled);
        assert_eq!(fulfilled.accounted_bytes, 32_000);
        assert_eq!(
            s.ingest(IngestRequest::fulfill(id)).outcome,
            IngestOutcome::NoOp
        );
        assert_eq!(s.received_images(), 1);
        assert_eq!(s.received_image_bytes(), 32_000);
        // The pulled-down payload now occupies real storage.
        assert_eq!(s.storage().ledger().stored_bytes, 32_000);
        assert_eq!(s.storage().live_bytes(), 32_000);
        assert_eq!(s.records()[&id].tier, ImageTier::Full);
        assert_eq!(s.records()[&id].time_s, Some(5.0));
        let r = s.answer(&RetrievalQuery::new().similar_to(&f).top_k(1));
        assert_eq!(r.hits[0].id, id);
        assert_eq!(r.hits[0].provenance, Provenance::Full);
        assert_eq!(r.on_device_matches, 0);
    }

    #[test]
    fn thumbnail_ingest_reports_degraded_provenance() {
        let mut s = Server::try_new(&config()).unwrap();
        s.set_time(1.0);
        let id = s
            .ingest(
                IngestRequest::thumbnail(400)
                    .with_features(ImageFeatures::empty_binary())
                    .with_geotag((1.0, 1.0)),
            )
            .id;
        let r = s.answer(&RetrievalQuery::new().near(1.0, 1.0, 0.0));
        assert_eq!(r.hits.len(), 1);
        assert_eq!(r.hits[0].id, id);
        assert_eq!(r.hits[0].provenance, Provenance::ThumbnailOnly);
        assert_eq!(s.received_images(), 1);
    }

    /// Identical payload bytes dedup in the store (while the uplink
    /// counters keep legacy accounting), and near-duplicate uploads group
    /// at epoch commit without disturbing the served-query counter.
    #[test]
    fn ingest_dedups_identical_bytes_and_groups_near_duplicates() {
        let cfg = config();
        let mut s = Server::try_new(&cfg).unwrap();
        let orb = Orb::new(cfg.orb);
        let scene = Scene::new(
            40,
            SceneConfig {
                width: 96,
                height: 72,
                n_shapes: 10,
                texture_amp: 8.0,
            },
        );
        let base = scene.render(&ViewJitter::identity());
        let near = scene.render(&ViewJitter {
            dx: 2.0,
            brightness: 5,
            ..ViewJitter::identity()
        });
        let payload = bees_image::codec::encode_rgb(&base, 60).unwrap();
        let near_payload = bees_image::codec::encode_rgb(&near, 60).unwrap();

        let first = s.ingest(
            IngestRequest::full(payload.len())
                .with_bytes(payload.clone())
                .with_features(orb.extract(&base.to_gray())),
        );
        assert_eq!(first.outcome, IngestOutcome::Stored);
        // Byte-identical payload from another device: dedup hit, legacy
        // counters still account the upload.
        let dup = s.ingest(
            IngestRequest::full(payload.len())
                .with_bytes(payload.clone())
                .with_features(orb.extract(&base.to_gray())),
        );
        assert_eq!(dup.outcome, IngestOutcome::DedupHit);
        assert_eq!(s.received_image_bytes(), 2 * payload.len());
        assert_eq!(s.storage().ledger().stored_bytes, payload.len());
        assert_eq!(s.storage().ledger().dedup_hits, 1);
        // A near-duplicate view stores fresh bytes...
        let nearby = s.ingest(
            IngestRequest::full(near_payload.len())
                .with_bytes(near_payload)
                .with_features(orb.extract(&near.to_gray())),
        );
        assert_eq!(nearby.outcome, IngestOutcome::Stored);
        let served_before = s.queries_served();
        // ...and the commit (forced by any feature query) merges it into
        // the duplicate pair's group via the similarity index.
        let probe = orb.extract(&base.to_gray());
        s.answer(&RetrievalQuery::new().similar_to(&probe).top_k(1));
        let group = s.storage().group_of(first.id.0);
        assert_eq!(group, &[first.id.0, dup.id.0, nearby.id.0]);
        // Grouping probes are bookkeeping, not served queries.
        assert_eq!(s.queries_served(), served_before + 1);
        // The ledger identity holds and the epoch series recorded it.
        let ledger = s.storage().ledger();
        assert_eq!(
            ledger.stored_bytes - ledger.reclaimed_bytes,
            s.storage().live_bytes()
        );
        assert!(!ledger.epochs.is_empty());
    }
}
