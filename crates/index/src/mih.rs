//! Multi-index hashing (MIH) accelerated index for binary descriptors.
//!
//! Norouzi et al.'s multi-index hashing observation: split a 256-bit code
//! into 4 disjoint 64-bit words; two codes within Hamming distance `r` must
//! agree *exactly* on at least one word whenever `r < 4` (pigeonhole), and
//! within distance `4·(p+1) − 1` some word is within distance `p` — which
//! the default radius-1 multi-probe exploits by also looking up every
//! single-bit neighbor of each query word.
//!
//! Candidate images are then scored with the full exact Jaccard similarity,
//! so MIH can never *fabricate* a match; it can only miss images whose best
//! descriptor pairs are noisier than the probe radius covers. For
//! near-duplicate re-uploads (the dominant disaster pattern) recall is
//! effectively total; for loosely similar views a linear scan remains the
//! exact reference, which is why the backend is selectable per server.
//!
//! The backend falls back to a linear scan for vector (SIFT/PCA-SIFT)
//! feature sets, which have no binary words to hash.

use crate::scratch::QueryScratch;
use crate::store::{rank_hits, ImageEntry, ImageId, QueryHit};
use crate::{FeatureIndex, Query};
use bees_features::block::WORDS_PER_DESCRIPTOR;
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::{Descriptors, ImageFeatures};
use bees_runtime::Runtime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Accelerated index: word-collision candidate generation plus exact
/// rescoring.
///
/// # Examples
///
/// ```
/// use bees_index::{FeatureIndex, ImageId, MihIndex};
/// use bees_features::similarity::SimilarityConfig;
/// use bees_features::ImageFeatures;
///
/// let mut index = MihIndex::new(SimilarityConfig::default());
/// index.insert(ImageId(1), ImageFeatures::empty_binary());
/// assert_eq!(index.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MihIndex {
    entries: Vec<ImageEntry>,
    id_to_pos: HashMap<ImageId, usize>,
    /// One hash table per 64-bit word position: word value -> image ids.
    tables: [HashMap<u64, Vec<ImageId>>; 4],
    /// Multi-probe radius: also probe every word within this Hamming
    /// distance of each query word (0 = exact words only; 1 probes the 64
    /// single-bit neighbors too, sharply raising recall on noisy
    /// descriptors at ~65x the lookups).
    probe_radius: u8,
    config: SimilarityConfig,
}

impl Default for MihIndex {
    fn default() -> Self {
        MihIndex::new(SimilarityConfig::default())
    }
}

impl MihIndex {
    /// Creates an empty index with the given similarity configuration and
    /// the default probe radius of 1.
    pub fn new(config: SimilarityConfig) -> Self {
        MihIndex {
            entries: Vec::new(),
            id_to_pos: HashMap::new(),
            tables: Default::default(),
            probe_radius: 1,
            config,
        }
    }

    /// Overrides the multi-probe radius (0 or 1; larger radii cost
    /// combinatorially more lookups).
    ///
    /// # Panics
    ///
    /// Panics if `radius > 1`.
    pub fn with_probe_radius(mut self, radius: u8) -> Self {
        assert!(radius <= 1, "probe radius above 1 is unsupported");
        self.probe_radius = radius;
        self
    }

    /// Returns the candidate image ids for a query (images sharing a
    /// descriptor word within the probe radius), sorted ascending. Exposed
    /// for the ablation benchmark.
    pub fn candidates(&self, query: &ImageFeatures) -> Vec<ImageId> {
        self.candidates_budgeted(query, 0)
    }

    /// [`candidates`](Self::candidates) with a budget: stops after `budget`
    /// distinct ids when `budget > 0`. Because every posting list is kept
    /// sorted and the lists are k-way merged smallest-id-first, a budgeted
    /// scan returns exactly the `budget` smallest candidate ids — a
    /// deterministic prefix, not an arbitrary subset.
    ///
    /// The merge replaces the old collect-into-`HashSet`-then-sort path,
    /// whose full re-sort on every query dominated lookup cost once posting
    /// lists grew; it also made early termination impossible (the budget
    /// would have applied before dedup/sort, yielding an order-dependent
    /// subset).
    pub fn candidates_budgeted(&self, query: &ImageFeatures, budget: usize) -> Vec<ImageId> {
        let mut scratch = QueryScratch::new();
        self.candidates_into(query, budget, &mut scratch);
        std::mem::take(&mut scratch.cand_ids)
    }

    /// [`candidates_budgeted`](Self::candidates_budgeted) into caller-owned
    /// scratch: the result lands in `scratch.candidates()` and the merge
    /// heap, cursor table, and output list all recycle the scratch's
    /// buffers. The one transient that cannot live in the scratch is the
    /// table of borrowed posting-list slices (its lifetime is tied to
    /// `&self`); it is allocated per call at the scratch's high-water-mark
    /// capacity, so a warmed scratch performs exactly one bounded
    /// allocation here regardless of index size — pinned by
    /// `tests/alloc_counts.rs`.
    pub fn candidates_into(
        &self,
        query: &ImageFeatures,
        budget: usize,
        scratch: &mut QueryScratch,
    ) {
        scratch.cand_ids.clear();
        let Descriptors::Binary(descs) = &query.descriptors else {
            return;
        };
        // Gather every probed posting list (each sorted ascending).
        let mut lists: Vec<&[ImageId]> = Vec::with_capacity(scratch.lists_hint);
        for (k, &word) in descs.words().iter().enumerate() {
            let table = &self.tables[k % WORDS_PER_DESCRIPTOR];
            if let Some(ids) = table.get(&word) {
                lists.push(ids);
            }
            if self.probe_radius >= 1 {
                for bit in 0..64 {
                    if let Some(ids) = table.get(&(word ^ (1u64 << bit))) {
                        lists.push(ids);
                    }
                }
            }
        }
        scratch.lists_hint = scratch.lists_hint.max(lists.len());
        // K-way merge with on-the-fly dedup: heap of (next id, list index),
        // rebuilt inside the scratch's recycled heap storage.
        let mut heap_store = std::mem::take(&mut scratch.merge_heap);
        heap_store.clear();
        let mut heap: BinaryHeap<Reverse<(ImageId, usize)>> = BinaryHeap::from(heap_store);
        for (li, l) in lists.iter().enumerate() {
            if !l.is_empty() {
                heap.push(Reverse((l[0], li)));
            }
        }
        scratch.cursors.clear();
        scratch.cursors.resize(lists.len(), 1);
        let out = &mut scratch.cand_ids;
        while let Some(Reverse((id, li))) = heap.pop() {
            if out.last() != Some(&id) {
                if budget > 0 && out.len() == budget {
                    break;
                }
                out.push(id);
            }
            let cur = scratch.cursors[li];
            if let Some(&next) = lists[li].get(cur) {
                scratch.cursors[li] = cur + 1;
                heap.push(Reverse((next, li)));
            }
        }
        scratch.merge_heap = heap.into_vec();
    }

    fn index_words(&mut self, id: ImageId, features: &ImageFeatures) {
        if let Descriptors::Binary(descs) = &features.descriptors {
            for (k, &word) in descs.words().iter().enumerate() {
                let bucket = self.tables[k % WORDS_PER_DESCRIPTOR]
                    .entry(word)
                    .or_default();
                // Sorted insertion keeps every posting list ascending,
                // which the budgeted k-way merge in `candidates` relies
                // on (ids usually arrive in order, making this a cheap
                // append in practice).
                if let Err(pos) = bucket.binary_search(&id) {
                    bucket.insert(pos, id);
                }
            }
        }
    }

    fn unindex_words(&mut self, id: ImageId, features: &ImageFeatures) {
        if let Descriptors::Binary(descs) = &features.descriptors {
            for (k, word) in descs.words().iter().enumerate() {
                if let Some(bucket) = self.tables[k % WORDS_PER_DESCRIPTOR].get_mut(word) {
                    bucket.retain(|&x| x != id);
                }
            }
        }
    }
}

impl FeatureIndex for MihIndex {
    fn insert(&mut self, id: ImageId, features: ImageFeatures) {
        if let Some(&pos) = self.id_to_pos.get(&id) {
            let old = self.entries[pos].features.clone();
            self.unindex_words(id, &old);
            self.index_words(id, &features);
            self.entries[pos].features = features;
        } else {
            self.index_words(id, &features);
            self.id_to_pos.insert(id, self.entries.len());
            self.entries.push(ImageEntry { id, features });
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn query_with_scratch(&self, query: &Query<'_>, scratch: &mut QueryScratch) -> Vec<QueryHit> {
        // Exact Jaccard rescoring dominates query cost; score every
        // candidate (or entry) in parallel, keeping candidate order.
        let rt = Runtime::current();
        let hits: Vec<QueryHit> = if let Descriptors::Binary(_) = &query.features.descriptors {
            self.candidates_into(query.features, query.max_candidates, scratch);
            rt.par_map(&scratch.cand_ids, |&id| {
                if !query.is_allowed(id) {
                    return None;
                }
                let pos = *self.id_to_pos.get(&id).expect("candidate ids are indexed");
                let s =
                    jaccard_similarity(query.features, &self.entries[pos].features, &self.config);
                (s > 0.0).then_some(QueryHit { id, similarity: s })
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            // Vector features: no word structure, fall back to a full scan
            // (exact, so the candidate budget does not apply).
            rt.par_map(&self.entries, |e| {
                if !query.is_allowed(e.id) {
                    return None;
                }
                let s = jaccard_similarity(query.features, &e.features, &self.config);
                (s > 0.0).then_some(QueryHit {
                    id: e.id,
                    similarity: s,
                })
            })
            .into_iter()
            .flatten()
            .collect()
        };
        rank_hits(hits, query.k)
    }

    fn feature_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.features.wire_size()).sum()
    }

    fn similarity_config(&self) -> &SimilarityConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_features::descriptor::BinaryDescriptor;
    use bees_features::{DescriptorBlock, Keypoint};
    use bees_rng::ChaCha8Rng;

    fn random_features(rng: &mut ChaCha8Rng, n: usize) -> ImageFeatures {
        let descs: Vec<BinaryDescriptor> = (0..n)
            .map(|_| {
                let mut bytes = [0u8; 32];
                rng.fill(&mut bytes);
                BinaryDescriptor::from_bytes(bytes)
            })
            .collect();
        ImageFeatures {
            keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
            descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
        }
    }

    /// Flips `k` bits of each descriptor, simulating a noisy re-observation.
    fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
        if let Descriptors::Binary(descs) = &f.descriptors {
            let out: Vec<BinaryDescriptor> = descs
                .iter()
                .map(|d| {
                    let mut bytes = *d.as_bytes();
                    for _ in 0..k {
                        let bit = rng.gen_range(0..256usize);
                        bytes[bit / 8] ^= 1 << (bit % 8);
                    }
                    BinaryDescriptor::from_bytes(bytes)
                })
                .collect();
            ImageFeatures {
                keypoints: f.keypoints.clone(),
                descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&out)),
            }
        } else {
            f.clone()
        }
    }

    #[test]
    fn exact_duplicate_is_found() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let f = random_features(&mut rng, 20);
        idx.insert(ImageId(1), f.clone());
        for _ in 0..10 {
            idx.insert(
                ImageId(rng.gen_range(2..100)),
                random_features(&mut rng, 20),
            );
        }
        let hit = idx.max_similarity(&f).unwrap();
        assert_eq!(hit.id, ImageId(1));
        assert!((hit.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_linear_index_on_noisy_duplicates() {
        use crate::LinearIndex;
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let cfg = SimilarityConfig::default();
        let mut mih = MihIndex::new(cfg);
        let mut lin = LinearIndex::new(cfg);
        let originals: Vec<ImageFeatures> = (0..8).map(|_| random_features(&mut rng, 15)).collect();
        for (i, f) in originals.iter().enumerate() {
            mih.insert(ImageId(i as u64), f.clone());
            lin.insert(ImageId(i as u64), f.clone());
        }
        for (i, f) in originals.iter().enumerate() {
            // Noisy re-observation: 2 flipped bits per descriptor keeps at
            // least one exact 64-bit word with overwhelming probability.
            let noisy = perturb(f, &mut rng, 2);
            let mh = mih.max_similarity(&noisy).expect("mih hit");
            let lh = lin.max_similarity(&noisy).expect("linear hit");
            assert_eq!(mh.id, lh.id, "query {i}");
            assert!((mh.similarity - lh.similarity).abs() < 1e-9);
        }
    }

    #[test]
    fn unrelated_queries_have_few_candidates() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        for i in 0..50 {
            idx.insert(ImageId(i), random_features(&mut rng, 10));
        }
        let probe = random_features(&mut rng, 10);
        // Random 64-bit words essentially never collide.
        assert!(idx.candidates(&probe).len() < 5);
    }

    #[test]
    fn reinsert_replaces_and_unindexes() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let f1 = random_features(&mut rng, 10);
        let f2 = random_features(&mut rng, 10);
        idx.insert(ImageId(1), f1.clone());
        idx.insert(ImageId(1), f2.clone());
        assert_eq!(idx.len(), 1);
        // The old features must no longer match.
        assert!(idx.max_similarity(&f1).is_none());
        assert!((idx.max_similarity(&f2).unwrap().similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn posting_lists_stay_sorted_under_out_of_order_inserts() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let shared = random_features(&mut rng, 5);
        // Insert the same feature set under descending ids: the candidate
        // merge must still return ascending ids.
        for id in [90u64, 40, 75, 3, 62] {
            idx.insert(ImageId(id), shared.clone());
        }
        let cands = idx.candidates(&shared);
        assert_eq!(
            cands,
            vec![
                ImageId(3),
                ImageId(40),
                ImageId(62),
                ImageId(75),
                ImageId(90)
            ]
        );
    }

    #[test]
    fn candidate_budget_keeps_the_smallest_ids() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let shared = random_features(&mut rng, 5);
        for id in 0..10u64 {
            idx.insert(ImageId(id), shared.clone());
        }
        let all = idx.candidates(&shared);
        assert_eq!(all.len(), 10);
        let capped = idx.candidates_budgeted(&shared, 4);
        assert_eq!(capped, all[..4].to_vec());
        // Budget 0 means unlimited.
        assert_eq!(idx.candidates_budgeted(&shared, 0), all);
    }

    #[test]
    fn query_respects_k_and_budget() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let shared = random_features(&mut rng, 5);
        for id in 0..6u64 {
            idx.insert(ImageId(id), shared.clone());
        }
        let hits = idx.query(&Query::top_k(&shared, 3));
        assert_eq!(hits.len(), 3);
        // Perfect-score ties break toward the smallest id.
        assert_eq!(hits[0].id, ImageId(0));
        let budgeted = idx.query(&Query::top_k(&shared, 10).with_max_candidates(2));
        assert_eq!(budgeted.len(), 2);
    }

    #[test]
    fn vector_features_fall_back_to_scan() {
        use bees_features::descriptor::VectorDescriptor;
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let vf = ImageFeatures {
            keypoints: vec![Keypoint::default()],
            descriptors: Descriptors::Vector(vec![VectorDescriptor::from_values(vec![
                1.0, 0.0, 0.0,
            ])]),
        };
        idx.insert(ImageId(5), vf.clone());
        let hit = idx.max_similarity(&vf).unwrap();
        assert_eq!(hit.id, ImageId(5));
    }
}
