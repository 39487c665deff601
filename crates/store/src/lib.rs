#![warn(missing_docs)]

//! Deterministic content-addressed storage for the BEES server.
//!
//! At the millions-of-users scale the ROADMAP targets, the server's dominant
//! cost shifts from ingest bandwidth to *storage*. This crate holds every
//! fidelity tier the server receives — full uploads, salvaged partials,
//! thumbnails, and on-device catalog entries — in one [`ContentStore`]:
//!
//! * **Content addressing.** Each payload maps to a [`BlobKey`] (FNV-1a over
//!   the payload bytes, or over a feature fingerprint + size for size-only
//!   stubs). A second ingest of identical content is a *dedup hit*: the
//!   existing blob gains a reference and no new physical bytes are written.
//! * **Near-duplicate groups.** Images join reference-counted groups built
//!   from the server's `FeatureIndex` similarity hits (the grouping query
//!   runs server-side at epoch commit; this crate only records the merges).
//! * **Cold recompression.** A virtual-clock-driven pass re-encodes
//!   full-fidelity blobs untouched for a configurable age at a lower quality
//!   tier when their group holds two or more members — reporting bytes
//!   reclaimed and the SSIM of each re-encode against the original decode.
//!   The group's highest-fidelity *reference member* is never recompressed,
//!   so dedup never drops the best copy. The pass gates blobs in key order,
//!   transcodes the candidates in parallel, one blob per runtime task
//!   ([`codec::recompress_all`]), and applies the outcomes in key order.
//!
//! Everything is deterministic: `BTreeMap` layout everywhere, a canonical
//! [`ContentStore::layout_digest`], a recompression report that is
//! bit-identical at any worker count, and a [`StorageLedger`] whose identity
//! `stored_bytes − reclaimed_bytes == live_bytes` every fleet run audits.

use bees_image::codec;
use std::collections::BTreeMap;

/// Content address of a stored payload: a 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlobKey(pub u64);

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 hasher: the content-address hash, and the fold
/// behind composite fingerprints (feature and histogram digests, the
/// layout digest) built up from multiple fields.
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Starts at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a `u64` word (little-endian bytes) into the hash.
    pub fn write_u64(&mut self, word: u64) {
        self.write(&word.to_le_bytes());
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Fidelity tier of a stored payload, ordered worst-to-best so the group's
/// *reference member* (the copy recompression must never touch) is simply
/// the maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fidelity {
    /// Catalog entry only: the payload still lives on the capturing device.
    OnDevice = 0,
    /// Degraded thumbnail rung.
    Thumbnail = 1,
    /// Salvaged progressive prefix awaiting its tail scans.
    Partial = 2,
    /// Full-fidelity upload.
    Full = 3,
}

impl Fidelity {
    fn as_u64(self) -> u64 {
        self as u64
    }
}

/// What the server hands the store for one ingest.
#[derive(Debug, Clone)]
pub enum StorePayload {
    /// The real encoded payload (BEES uploads carry their bitstream).
    /// Content-addressed by the bytes themselves; recompressible.
    Bytes(Vec<u8>),
    /// Only the payload *size* is known (baseline schemes model their
    /// uploads without materializing them). Content-addressed by
    /// `(fingerprint, size, fidelity)`; exact-dedup only, never
    /// recompressed.
    Size {
        /// Modeled payload size in bytes.
        size: usize,
        /// Caller-supplied content fingerprint (e.g. a feature digest).
        fingerprint: u64,
    },
}

/// One physical blob: a content-addressed payload plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct BlobRecord {
    /// Real payload bytes, when the ingest carried them.
    pub bytes: Option<Vec<u8>>,
    /// Current physical length in bytes (tracks recompression and partial
    /// upgrades; may exceed `bytes.len()` for upgraded partials whose tail
    /// was accounted but never materialized).
    pub len: usize,
    /// Physical length when first stored.
    pub original_len: usize,
    /// Best fidelity any referencing image reached.
    pub fidelity: Fidelity,
    /// Number of image ids referencing this blob.
    pub refs: usize,
    /// Virtual time of the last write touch (store, dedup hit, upgrade).
    pub last_touch_s: f64,
    /// Whether the cold pass already re-encoded (or inspected and skipped)
    /// this blob — recompression is idempotent.
    pub recompressed: bool,
    /// Lowest image id referencing this blob (the group lookup handle).
    first_image: u64,
}

/// Cumulative storage counters plus the per-epoch capacity trajectory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageLedger {
    /// Physical bytes ever written (new blobs + partial-upgrade tails).
    pub stored_bytes: usize,
    /// Bytes recompression gave back.
    pub reclaimed_bytes: usize,
    /// Ingests answered by an existing blob (no new physical bytes).
    pub dedup_hits: usize,
    /// Ledger snapshots taken at each epoch commit, in commit order.
    pub epochs: Vec<EpochStorage>,
}

/// One epoch-commit snapshot of the cumulative counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpochStorage {
    /// Cumulative physical bytes written at this commit.
    pub stored_bytes: usize,
    /// Cumulative bytes reclaimed at this commit.
    pub reclaimed_bytes: usize,
    /// Cumulative dedup hits at this commit.
    pub dedup_hits: usize,
}

/// Minimum near-duplicate group size (k) before any member is considered
/// redundant enough to recompress: a singleton has no redundant copy to
/// fall back on.
const RECOMPRESS_MIN_GROUP: usize = 2;

/// Storage-tier tuning knobs, embedded in `BeesConfig::storage`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageConfig {
    /// Minimum virtual age (seconds since last write touch) before a blob
    /// is cold enough to recompress.
    pub recompress_min_age_s: f64,
    /// Codec quality the cold pass re-encodes at (1..=100).
    pub recompress_quality: u8,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            recompress_min_age_s: 300.0,
            recompress_quality: 40,
        }
    }
}

impl StorageConfig {
    /// Validates the knobs, naming the offending one.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first invalid knob.
    pub fn validate(&self) -> Result<(), String> {
        if !self.recompress_min_age_s.is_finite() || self.recompress_min_age_s < 0.0 {
            return Err(format!(
                "recompress_min_age_s must be finite and non-negative, got {}",
                self.recompress_min_age_s
            ));
        }
        if self.recompress_quality == 0 || self.recompress_quality > 100 {
            return Err(format!(
                "recompress_quality must be in 1..=100, got {}",
                self.recompress_quality
            ));
        }
        Ok(())
    }
}

/// Outcome of one cold-recompression pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecompressionReport {
    /// Blobs in the store when the pass ran; the pass gates every one.
    pub scanned: usize,
    /// Blobs that passed every gate and were re-encoded.
    pub recompressed: usize,
    /// Physical bytes the pass gave back.
    pub bytes_reclaimed: usize,
    /// Sum of re-encode SSIM scores (new decode vs old decode).
    pub ssim_sum: f64,
}

impl RecompressionReport {
    /// Mean SSIM of the recompressed blobs (1.0 when none were touched).
    pub fn mean_ssim(&self) -> f64 {
        if self.recompressed == 0 {
            1.0
        } else {
            self.ssim_sum / self.recompressed as f64
        }
    }
}

/// The content-addressed blob store.
///
/// Keys, groups, and the ledger all live in `BTreeMap`s, so iteration order
/// — and therefore [`layout_digest`](ContentStore::layout_digest) and every
/// recompression decision — is a pure function of the ingest sequence.
#[derive(Debug, Clone, Default)]
pub struct ContentStore {
    blobs: BTreeMap<BlobKey, BlobRecord>,
    /// Image id → blob holding its payload.
    by_image: BTreeMap<u64, BlobKey>,
    /// Group id (the smallest member image id) → member image ids.
    groups: BTreeMap<u64, Vec<u64>>,
    /// Image id → group id.
    image_group: BTreeMap<u64, u64>,
    ledger: StorageLedger,
}

/// What [`ContentStore::insert`] did with the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// A new blob was written; `len` physical bytes were stored.
    Stored {
        /// Physical bytes written.
        len: usize,
    },
    /// Identical content was already stored; no new physical bytes.
    DedupHit,
}

impl ContentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ContentStore::default()
    }

    /// The content key of a payload (what [`insert`](ContentStore::insert)
    /// will file it under).
    pub fn key_of(payload: &StorePayload, fidelity: Fidelity) -> BlobKey {
        let mut h = Fnv64::new();
        match payload {
            StorePayload::Bytes(b) => h.write(b),
            StorePayload::Size { size, fingerprint } => {
                h.write_u64(*fingerprint);
                h.write_u64(*size as u64);
                h.write_u64(fidelity.as_u64());
            }
        }
        BlobKey(h.finish())
    }

    /// Files `payload` under image `image_id` at virtual time `now_s`.
    ///
    /// Identical content (same [`BlobKey`]) becomes a dedup hit: the
    /// existing blob gains a reference, its touch time refreshes, and the
    /// new image joins the blob's near-duplicate group. New content starts
    /// a singleton group (epoch-commit grouping may merge it later).
    pub fn insert(
        &mut self,
        image_id: u64,
        payload: StorePayload,
        fidelity: Fidelity,
        now_s: f64,
    ) -> InsertOutcome {
        debug_assert!(
            !self.by_image.contains_key(&image_id),
            "image {image_id} ingested twice"
        );
        let key = Self::key_of(&payload, fidelity);
        if let Some(blob) = self.blobs.get_mut(&key) {
            blob.refs += 1;
            blob.last_touch_s = now_s;
            blob.fidelity = blob.fidelity.max(fidelity);
            let gid = self.image_group[&blob.first_image];
            self.by_image.insert(image_id, key);
            self.groups
                .get_mut(&gid)
                .expect("group exists")
                .push(image_id);
            self.image_group.insert(image_id, gid);
            self.ledger.dedup_hits += 1;
            return InsertOutcome::DedupHit;
        }
        let (bytes, len) = match payload {
            StorePayload::Bytes(b) => {
                let len = b.len();
                (Some(b), len)
            }
            // Catalog entries hold no server-side payload: the size is an
            // estimate of what a pull-down would deliver, so they occupy
            // zero physical bytes until fulfilled.
            StorePayload::Size { size, .. } => {
                let len = if fidelity == Fidelity::OnDevice {
                    0
                } else {
                    size
                };
                (None, len)
            }
        };
        self.blobs.insert(
            key,
            BlobRecord {
                bytes,
                len,
                original_len: len,
                fidelity,
                refs: 1,
                last_touch_s: now_s,
                recompressed: false,
                first_image: image_id,
            },
        );
        self.by_image.insert(image_id, key);
        self.groups.insert(image_id, vec![image_id]);
        self.image_group.insert(image_id, image_id);
        self.ledger.stored_bytes += len;
        InsertOutcome::Stored { len }
    }

    /// Merges image `a`'s group into image `b`'s (the epoch-commit grouping
    /// found them similar). The surviving group id is the smaller of the
    /// two, so merge order cannot change the final layout. No-op when the
    /// images already share a group or either is unknown.
    pub fn merge_groups(&mut self, a: u64, b: u64) {
        let (Some(&ga), Some(&gb)) = (self.image_group.get(&a), self.image_group.get(&b)) else {
            return;
        };
        if ga == gb {
            return;
        }
        let (keep, drop) = if ga < gb { (ga, gb) } else { (gb, ga) };
        let moved = self.groups.remove(&drop).expect("group exists");
        for &m in &moved {
            self.image_group.insert(m, keep);
        }
        let merged = self.groups.get_mut(&keep).expect("group exists");
        merged.extend(moved);
        // Keep membership ascending so the layout (and its digest) depends
        // only on the final partition, never on the merge sequence.
        merged.sort_unstable();
    }

    /// Accounts `tail` extra physical bytes against image `image_id`'s blob
    /// (a salvaged partial completed in place) and promotes it to
    /// [`Fidelity::Full`]. No-op for unknown images.
    pub fn upgrade(&mut self, image_id: u64, tail: usize, now_s: f64) {
        let Some(key) = self.by_image.get(&image_id) else {
            return;
        };
        let blob = self.blobs.get_mut(key).expect("by_image points at a blob");
        blob.len += tail;
        blob.fidelity = Fidelity::Full;
        blob.last_touch_s = now_s;
        self.ledger.stored_bytes += tail;
    }

    /// Converts image `image_id`'s on-device catalog entry into a received
    /// payload of `size` physical bytes (the pull-down delivered it).
    /// No-op for unknown images.
    pub fn fulfill(&mut self, image_id: u64, size: usize, now_s: f64) {
        let Some(key) = self.by_image.get(&image_id) else {
            return;
        };
        let blob = self.blobs.get_mut(key).expect("by_image points at a blob");
        blob.len += size;
        blob.fidelity = Fidelity::Full;
        blob.last_touch_s = now_s;
        self.ledger.stored_bytes += size;
    }

    /// Takes an epoch snapshot of the cumulative counters (the server calls
    /// this at every epoch commit, building the capacity-over-time series).
    pub fn commit_epoch(&mut self) {
        self.ledger.epochs.push(EpochStorage {
            stored_bytes: self.ledger.stored_bytes,
            reclaimed_bytes: self.ledger.reclaimed_bytes,
            dedup_hits: self.ledger.dedup_hits,
        });
    }

    /// The cumulative counters and epoch trajectory.
    pub fn ledger(&self) -> &StorageLedger {
        &self.ledger
    }

    /// Physical bytes currently occupied by live blobs. The ledger identity
    /// `stored_bytes − reclaimed_bytes == live_bytes` holds at all times
    /// (there is no deletion path).
    pub fn live_bytes(&self) -> usize {
        self.blobs.values().map(|b| b.len).sum()
    }

    /// Number of distinct blobs.
    pub fn blob_count(&self) -> usize {
        self.blobs.len()
    }

    /// Number of image references across all blobs.
    pub fn image_count(&self) -> usize {
        self.by_image.len()
    }

    /// The blob holding image `image_id`'s payload, if stored.
    pub fn blob_of(&self, image_id: u64) -> Option<&BlobRecord> {
        self.by_image.get(&image_id).map(|k| &self.blobs[k])
    }

    /// Whether the store holds a payload for image `image_id`.
    pub fn contains(&self, image_id: u64) -> bool {
        self.by_image.contains_key(&image_id)
    }

    /// Members of image `image_id`'s near-duplicate group (ascending image
    /// id), or an empty slice for unknown images.
    pub fn group_of(&self, image_id: u64) -> &[u64] {
        self.image_group
            .get(&image_id)
            .and_then(|gid| self.groups.get(gid))
            .map_or(&[], Vec::as_slice)
    }

    /// Number of near-duplicate groups.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The group's *reference member*: the image whose blob has the highest
    /// fidelity, ties broken toward the lowest image id. This is the copy
    /// recompression must never degrade.
    pub fn reference_member(&self, image_id: u64) -> Option<u64> {
        self.reference_of(self.group_of(image_id))
    }

    /// [`reference_member`](ContentStore::reference_member) of a group,
    /// given its members.
    fn reference_of(&self, members: &[u64]) -> Option<u64> {
        members
            .iter()
            .filter_map(|&m| self.blob_of(m).map(|b| (b.fidelity, m)))
            .max_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)))
            .map(|(_, m)| m)
    }

    /// Runs the cold-recompression pass at virtual time `now_s`.
    ///
    /// A blob is re-encoded at `config.recompress_quality` when *all* gates
    /// pass:
    ///
    /// 1. it carries real bytes whose length matches the accounted length
    ///    (size-only stubs and upgraded partials are skipped),
    /// 2. it reached [`Fidelity::Full`],
    /// 3. it has not been recompressed before (idempotence),
    /// 4. it is cold: `now_s − last_touch_s ≥ recompress_min_age_s`,
    /// 5. its near-duplicate group holds at least two members,
    /// 6. it does not hold the group's [reference
    ///    member](ContentStore::reference_member).
    ///
    /// The pass runs in three phases. It gates every blob in key order,
    /// resolving each group's reference member once. It transcodes the
    /// candidates with [`codec::recompress_all`], one blob per runtime
    /// task. It then applies the outcomes in key order, so the report's
    /// `f64` sum is the same at any worker count.
    ///
    /// The re-encode is kept only when strictly smaller; either way the
    /// blob is marked `recompressed` so a second pass is a no-op. Each kept
    /// re-encode contributes its SSIM (new decode vs old decode, luminance)
    /// to the report.
    pub fn run_recompression(&mut self, now_s: f64, config: &StorageConfig) -> RecompressionReport {
        let mut references: BTreeMap<u64, Option<BlobKey>> = BTreeMap::new();
        let (keys, payloads): (Vec<BlobKey>, Vec<&[u8]>) = self
            .blobs
            .iter()
            .filter_map(|(&key, blob)| {
                let bytes = blob.bytes.as_deref().filter(|b| b.len() == blob.len)?;
                if blob.recompressed
                    || blob.fidelity != Fidelity::Full
                    || now_s - blob.last_touch_s < config.recompress_min_age_s
                {
                    return None;
                }
                let gid = self.image_group[&blob.first_image];
                let members = &self.groups[&gid];
                if members.len() < RECOMPRESS_MIN_GROUP {
                    return None;
                }
                let reference = *references
                    .entry(gid)
                    .or_insert_with(|| self.reference_of(members).map(|m| self.by_image[&m]));
                (reference != Some(key)).then_some((key, bytes))
            })
            .unzip();
        let outcomes = codec::recompress_all(&payloads, config.recompress_quality);

        let mut report = RecompressionReport {
            scanned: self.blobs.len(),
            ..RecompressionReport::default()
        };
        for (key, outcome) in keys.iter().zip(outcomes) {
            let blob = self.blobs.get_mut(key).expect("candidate is stored");
            // Undecodable, foreign or not-smaller payloads are marked too,
            // so the pass never retries them.
            blob.recompressed = true;
            let Some(codec::Recompressed { bytes, ssim }) = outcome else {
                continue;
            };
            let saved = blob.len - bytes.len();
            blob.len = bytes.len();
            blob.bytes = Some(bytes);
            self.ledger.reclaimed_bytes += saved;
            report.recompressed += 1;
            report.bytes_reclaimed += saved;
            report.ssim_sum += ssim;
        }
        report
    }

    /// A canonical digest of the whole store layout: every blob's key,
    /// lengths, fidelity, flags and refs, every image→blob edge, and every
    /// group's membership, folded through FNV-1a in `BTreeMap` order. Two
    /// stores built from the same ingest sequence — at any thread or shard
    /// count — digest identically.
    pub fn layout_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for (key, blob) in &self.blobs {
            h.write_u64(key.0);
            h.write_u64(blob.len as u64);
            h.write_u64(blob.original_len as u64);
            h.write_u64(blob.fidelity.as_u64());
            h.write_u64(blob.refs as u64);
            h.write_u64(blob.recompressed as u64);
        }
        for (&img, key) in &self.by_image {
            h.write_u64(img);
            h.write_u64(key.0);
        }
        for (&gid, members) in &self.groups {
            h.write_u64(gid);
            for &m in members {
                h.write_u64(m);
            }
        }
        h.write_u64(self.ledger.stored_bytes as u64);
        h.write_u64(self.ledger.reclaimed_bytes as u64);
        h.write_u64(self.ledger.dedup_hits as u64);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_image::RgbImage;

    fn scene(seed: u64) -> RgbImage {
        // A deterministic textured test card (no dataset dep in this crate).
        RgbImage::from_fn(96, 72, |x, y| {
            let v = (x.wrapping_mul(31) ^ y.wrapping_mul(17)) as u64 ^ seed;
            bees_image::Rgb::new(
                (v % 251) as u8,
                ((v >> 3) % 251) as u8,
                ((v >> 6) % 251) as u8,
            )
        })
    }

    fn full_bytes(seed: u64, quality: u8) -> Vec<u8> {
        codec::encode_rgb(&scene(seed), quality).unwrap()
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let fnv1a = |bytes: &[u8]| {
            let mut h = Fnv64::new();
            h.write(bytes);
            h.finish()
        };
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn identical_bytes_dedup() {
        let mut s = ContentStore::new();
        let payload = full_bytes(1, 60);
        let len = payload.len();
        assert_eq!(
            s.insert(0, StorePayload::Bytes(payload.clone()), Fidelity::Full, 0.0),
            InsertOutcome::Stored { len }
        );
        assert_eq!(
            s.insert(1, StorePayload::Bytes(payload), Fidelity::Full, 5.0),
            InsertOutcome::DedupHit
        );
        assert_eq!(s.blob_count(), 1);
        assert_eq!(s.image_count(), 2);
        assert_eq!(s.ledger().stored_bytes, len);
        assert_eq!(s.ledger().dedup_hits, 1);
        assert_eq!(s.live_bytes(), len);
        // Both images share one group through the shared blob.
        assert_eq!(s.group_of(0), &[0, 1]);
        assert_eq!(s.blob_of(1).unwrap().refs, 2);
    }

    #[test]
    fn size_only_keys_fold_fingerprint_size_and_fidelity() {
        let a = ContentStore::key_of(
            &StorePayload::Size {
                size: 100,
                fingerprint: 7,
            },
            Fidelity::Full,
        );
        let b = ContentStore::key_of(
            &StorePayload::Size {
                size: 101,
                fingerprint: 7,
            },
            Fidelity::Full,
        );
        let c = ContentStore::key_of(
            &StorePayload::Size {
                size: 100,
                fingerprint: 8,
            },
            Fidelity::Full,
        );
        let d = ContentStore::key_of(
            &StorePayload::Size {
                size: 100,
                fingerprint: 7,
            },
            Fidelity::Thumbnail,
        );
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn catalog_entries_occupy_zero_bytes_until_fulfilled() {
        let mut s = ContentStore::new();
        s.insert(
            3,
            StorePayload::Size {
                size: 4096,
                fingerprint: 9,
            },
            Fidelity::OnDevice,
            0.0,
        );
        assert_eq!(s.ledger().stored_bytes, 0);
        assert_eq!(s.live_bytes(), 0);
        s.fulfill(3, 4096, 10.0);
        assert_eq!(s.ledger().stored_bytes, 4096);
        assert_eq!(s.live_bytes(), 4096);
        assert_eq!(s.blob_of(3).unwrap().fidelity, Fidelity::Full);
    }

    #[test]
    fn upgrade_accounts_tail_and_promotes() {
        let mut s = ContentStore::new();
        s.insert(
            0,
            StorePayload::Size {
                size: 400,
                fingerprint: 1,
            },
            Fidelity::Partial,
            0.0,
        );
        assert_eq!(s.ledger().stored_bytes, 400);
        s.upgrade(0, 600, 5.0);
        assert_eq!(s.ledger().stored_bytes, 1000);
        assert_eq!(s.blob_of(0).unwrap().fidelity, Fidelity::Full);
        assert_eq!(s.live_bytes(), 1000);
        // Unknown images are a no-op.
        s.upgrade(99, 10, 5.0);
        assert_eq!(s.ledger().stored_bytes, 1000);
    }

    #[test]
    fn merge_keeps_smallest_group_id_regardless_of_order() {
        let mut a = ContentStore::new();
        let mut b = ContentStore::new();
        for s in [&mut a, &mut b] {
            for id in 0..3u64 {
                s.insert(
                    id,
                    StorePayload::Size {
                        size: 10 + id as usize,
                        fingerprint: id,
                    },
                    Fidelity::Full,
                    0.0,
                );
            }
        }
        a.merge_groups(2, 1);
        a.merge_groups(1, 0);
        b.merge_groups(0, 1);
        b.merge_groups(2, 0);
        assert_eq!(a.layout_digest(), b.layout_digest());
        assert_eq!(a.group_of(2), &[0, 1, 2]);
        assert_eq!(a.group_count(), 1);
    }

    #[test]
    fn recompression_reclaims_cold_redundant_members() {
        let cfg = StorageConfig {
            recompress_min_age_s: 100.0,
            recompress_quality: 30,
        };
        let mut s = ContentStore::new();
        for id in 0..3u64 {
            s.insert(
                id,
                StorePayload::Bytes(full_bytes(id, 85)),
                Fidelity::Full,
                0.0,
            );
        }
        s.merge_groups(0, 1);
        s.merge_groups(1, 2);
        let before = s.live_bytes();
        let report = s.run_recompression(500.0, &cfg);
        // The reference member (all Full: lowest id, image 0) is spared.
        assert_eq!(report.recompressed, 2);
        assert!(report.bytes_reclaimed > 0);
        assert!(report.mean_ssim() > 0.5 && report.mean_ssim() <= 1.0);
        assert_eq!(s.live_bytes(), before - report.bytes_reclaimed);
        assert_eq!(
            s.ledger().stored_bytes - s.ledger().reclaimed_bytes,
            s.live_bytes()
        );
        assert!(!s.blob_of(0).unwrap().recompressed);
        assert!(s.blob_of(1).unwrap().recompressed);
        // Idempotent: a second pass finds nothing new.
        let again = s.run_recompression(1000.0, &cfg);
        assert_eq!(again.recompressed, 0);
        assert_eq!(again.bytes_reclaimed, 0);
    }

    #[test]
    fn recompression_spares_hot_singleton_and_sizeonly_blobs() {
        let cfg = StorageConfig {
            recompress_min_age_s: 100.0,
            ..StorageConfig::default()
        };
        let mut s = ContentStore::new();
        // Hot pair: touched at t=450, pass runs at t=500.
        s.insert(
            0,
            StorePayload::Bytes(full_bytes(0, 85)),
            Fidelity::Full,
            450.0,
        );
        s.insert(
            1,
            StorePayload::Bytes(full_bytes(1, 85)),
            Fidelity::Full,
            450.0,
        );
        s.merge_groups(0, 1);
        // Cold singleton.
        s.insert(
            2,
            StorePayload::Bytes(full_bytes(2, 85)),
            Fidelity::Full,
            0.0,
        );
        // Cold size-only pair.
        s.insert(
            3,
            StorePayload::Size {
                size: 900,
                fingerprint: 3,
            },
            Fidelity::Full,
            0.0,
        );
        s.insert(
            4,
            StorePayload::Size {
                size: 901,
                fingerprint: 4,
            },
            Fidelity::Full,
            0.0,
        );
        s.merge_groups(3, 4);
        let report = s.run_recompression(500.0, &cfg);
        assert_eq!(report.recompressed, 0);
        assert_eq!(s.ledger().reclaimed_bytes, 0);
    }

    #[test]
    fn reference_member_prefers_fidelity_then_lowest_id() {
        let mut s = ContentStore::new();
        s.insert(
            0,
            StorePayload::Size {
                size: 10,
                fingerprint: 0,
            },
            Fidelity::Thumbnail,
            0.0,
        );
        s.insert(
            1,
            StorePayload::Size {
                size: 11,
                fingerprint: 1,
            },
            Fidelity::Full,
            0.0,
        );
        s.insert(
            2,
            StorePayload::Size {
                size: 12,
                fingerprint: 2,
            },
            Fidelity::Full,
            0.0,
        );
        s.merge_groups(0, 1);
        s.merge_groups(1, 2);
        assert_eq!(s.reference_member(0), Some(1));
    }

    #[test]
    fn epoch_snapshots_accumulate() {
        let mut s = ContentStore::new();
        s.insert(
            0,
            StorePayload::Size {
                size: 100,
                fingerprint: 0,
            },
            Fidelity::Full,
            0.0,
        );
        s.commit_epoch();
        s.insert(
            1,
            StorePayload::Size {
                size: 50,
                fingerprint: 1,
            },
            Fidelity::Full,
            1.0,
        );
        s.commit_epoch();
        let epochs = &s.ledger().epochs;
        assert_eq!(epochs.len(), 2);
        assert_eq!(epochs[0].stored_bytes, 100);
        assert_eq!(epochs[1].stored_bytes, 150);
    }

    #[test]
    fn layout_digest_tracks_every_mutation() {
        let mut s = ContentStore::new();
        let d0 = s.layout_digest();
        s.insert(
            0,
            StorePayload::Size {
                size: 100,
                fingerprint: 0,
            },
            Fidelity::Full,
            0.0,
        );
        let d1 = s.layout_digest();
        assert_ne!(d0, d1);
        s.insert(
            1,
            StorePayload::Size {
                size: 100,
                fingerprint: 1,
            },
            Fidelity::Full,
            0.0,
        );
        let d2 = s.layout_digest();
        assert_ne!(d1, d2);
        s.merge_groups(0, 1);
        assert_ne!(d2, s.layout_digest());
    }

    #[test]
    fn config_validation_names_the_offending_knob() {
        let ok = StorageConfig::default();
        ok.validate().expect("defaults are valid");
        let bad = StorageConfig {
            recompress_min_age_s: -1.0,
            ..ok.clone()
        };
        assert!(bad.validate().unwrap_err().contains("recompress_min_age_s"));
        let bad = StorageConfig {
            recompress_quality: 0,
            ..ok
        };
        assert!(bad.validate().unwrap_err().contains("recompress_quality"));
    }
}
