//! Multi-index hashing (MIH) accelerated index for binary descriptors.
//!
//! Norouzi et al.'s multi-index hashing observation: split a code into
//! disjoint substrings; two codes within Hamming distance `r` of each other
//! agree *exactly* on at least one substring whenever there are more
//! substrings than `r`, so a radius-`r` probe becomes exact substring
//! lookups. The index applies it twice. A 256-bit ORB code is four 64-bit
//! words, and an image is a candidate when one of its words lies within
//! the probe radius (0 or 1) of the query word at the same position. Each
//! 64-bit word is in turn two 32-bit halves, and a word within distance 1
//! of the query word equals it on at least one half. So a query word costs
//! two exact lookups, one per half, and a popcount filter on the entries
//! they find.
//!
//! The images themselves live in a [`LinearIndex`]. Postings live in one
//! arena per word position: each indexed `(word, position)` is stored
//! once, where the position is the image's place in the linear index, and
//! chained under both of its halves, so the index makes no allocation per
//! key and a candidate is rescored straight from its position.
//!
//! Candidate images are then scored with the full exact Jaccard similarity,
//! so MIH can never *fabricate* a match; it can only miss images whose best
//! descriptor pairs are noisier than the probe radius covers. For
//! near-duplicate re-uploads (the dominant disaster pattern) recall is
//! effectively total; for loosely similar views a linear scan remains the
//! exact reference, which is why the backend is selectable per server.
//!
//! Vector (SIFT/PCA-SIFT) feature sets have no binary words to hash, so
//! the linear index answers their probes with its scan.

use crate::scratch::QueryScratch;
use crate::store::{rank_hits, ImageId, QueryHit};
use crate::{FeatureIndex, LinearIndex, Query};
use bees_features::block::WORDS_PER_DESCRIPTOR;
use bees_features::similarity::SimilarityConfig;
use bees_features::{Descriptors, ImageFeatures};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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
    /// The stored images; it also answers vector-feature probes.
    linear: LinearIndex,
    /// One posting arena per 64-bit word position.
    arenas: [PostingArena; WORDS_PER_DESCRIPTOR],
    /// Multi-probe radius: also match every word within this Hamming
    /// distance of each query word (0 = exact words only; 1 adds the 64
    /// single-bit neighbors, sharply raising recall on noisy descriptors).
    probe_radius: u8,
}

impl MihIndex {
    /// Creates an empty index with the given similarity configuration and
    /// the default probe radius of 1.
    pub fn new(config: SimilarityConfig) -> Self {
        MihIndex {
            linear: LinearIndex::new(config),
            arenas: Default::default(),
            probe_radius: 1,
        }
    }

    /// Overrides the multi-probe radius (0 or 1: two half-word lookups
    /// find every word within distance 1, and no more).
    ///
    /// # Panics
    ///
    /// Panics if `radius > 1`.
    pub fn with_probe_radius(mut self, radius: u8) -> Self {
        assert!(radius <= 1, "probe radius above 1 is unsupported");
        self.probe_radius = radius;
        self
    }

    /// Returns the candidate image ids for a query (images with a
    /// descriptor word within the probe radius of the query's word at the
    /// same position), sorted ascending. Exposed for the ablation
    /// benchmark.
    pub fn candidates(&self, query: &ImageFeatures) -> Vec<ImageId> {
        let mut scratch = QueryScratch::new();
        self.candidates_into(query, &mut scratch);
        let mut ids: Vec<ImageId> = scratch
            .candidates()
            .iter()
            .map(|&pos| self.linear.id_at(pos as usize))
            .collect();
        ids.sort_unstable();
        ids
    }

    /// The candidates of [`candidates`](Self::candidates) into
    /// caller-owned scratch, as the ascending, deduplicated insertion
    /// positions in `scratch.candidates()`. Every query word's matches are
    /// appended to the scratch's recycled list, which is then sorted and
    /// deduplicated in place, so a warmed scratch makes no allocation here
    /// at any index size — pinned by `tests/alloc_counts.rs`.
    pub fn candidates_into(&self, query: &ImageFeatures, scratch: &mut QueryScratch) {
        let out = &mut scratch.cand_pos;
        out.clear();
        let Descriptors::Binary(descs) = &query.descriptors else {
            return;
        };
        let radius = u32::from(self.probe_radius);
        for (k, &word) in descs.words().iter().enumerate() {
            self.arenas[k % WORDS_PER_DESCRIPTOR].probe(word, radius, out);
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Marks the end of a posting chain.
const NIL: u32 = u32::MAX;

/// One indexed `(word, position)`, chained under both of its halves:
/// `next[0]` continues the chain of its low half, `next[1]` that of its
/// high half.
#[derive(Debug, Clone, Copy)]
struct Posting {
    word: u64,
    /// The image's position in the linear index.
    pos: u32,
    next: [u32; 2],
}

/// The postings of one word position: an arena of `(word, position)`
/// entries, each linked into the chain of its low half and of its high
/// half.
#[derive(Debug, Clone, Default)]
struct PostingArena {
    postings: Vec<Posting>,
    /// Chain heads by half: `heads[0]` keyed by low halves, `heads[1]` by
    /// high halves. Nothing iterates them, so their order is irrelevant.
    heads: [HashMap<u32, u32, BuildHasherDefault<MulShift>>; 2],
}

/// The two 32-bit halves of a word, low first.
fn halves(word: u64) -> [u32; 2] {
    [word as u32, (word >> 32) as u32]
}

impl PostingArena {
    fn insert(&mut self, word: u64, pos: u32) {
        assert!(self.postings.len() < NIL as usize, "too many postings");
        let slot = self.postings.len() as u32;
        let mut next = [NIL; 2];
        for (side, half) in halves(word).into_iter().enumerate() {
            next[side] = std::mem::replace(self.heads[side].entry(half).or_insert(NIL), slot);
        }
        self.postings.push(Posting { word, pos, next });
    }

    /// Appends the position of every posting whose word lies within
    /// `radius` (at most 1) of `query`. Such a word equals `query` on at
    /// least one half, so walking the two chains of `query`'s halves finds
    /// them all. A posting on both chains shares the low half, so the high
    /// chain skips those.
    fn probe(&self, query: u64, radius: u32, out: &mut Vec<u32>) {
        let q = halves(query);
        for side in 0..2 {
            let mut slot = self.heads[side].get(&q[side]).copied().unwrap_or(NIL);
            while slot != NIL {
                let p = &self.postings[slot as usize];
                if (p.word ^ query).count_ones() <= radius && (side == 0 || p.word as u32 != q[0]) {
                    out.push(p.pos);
                }
                slot = p.next[side];
            }
        }
    }
}

/// Multiply-shift hashing for the 32-bit chain keys: one multiply by a
/// 64-bit odd constant, with the high half folded into the low bits that
/// pick a bucket. The keys are halves of uploaded descriptor words, but an
/// uploader who wants long probes needs no hash collision: repeating one
/// word already lengthens its chain. SipHash's resistance to crafted
/// collisions would therefore protect nothing, and it costs several times
/// the multiply on each of a query's two lookups per word.
#[derive(Debug, Clone, Copy, Default)]
struct MulShift(u64);

impl Hasher for MulShift {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(self.0 as u32 ^ u32::from(b));
        }
    }

    fn write_u32(&mut self, key: u32) {
        let h = u64::from(key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }
}

impl FeatureIndex for MihIndex {
    /// Posts each distinct word of each position once, under the position
    /// the image takes in the linear index.
    fn insert(&mut self, id: ImageId, features: ImageFeatures) {
        let pos = u32::try_from(self.linear.len()).expect("too many images");
        if let Descriptors::Binary(descs) = &features.descriptors {
            let mut words = Vec::with_capacity(descs.len());
            for (position, arena) in self.arenas.iter_mut().enumerate() {
                words.clear();
                let all = descs.words().iter();
                words.extend(all.skip(position).step_by(WORDS_PER_DESCRIPTOR));
                words.sort_unstable();
                words.dedup();
                for &word in &words {
                    arena.insert(word, pos);
                }
            }
        }
        self.linear.insert(id, features);
    }

    fn len(&self) -> usize {
        self.linear.len()
    }

    fn query_with_scratch(&self, query: &Query<'_>, scratch: &mut QueryScratch) -> Vec<QueryHit> {
        let Descriptors::Binary(_) = &query.features.descriptors else {
            return self.linear.query_with_scratch(query, scratch);
        };
        // Exact Jaccard rescoring dominates query cost; score every
        // candidate in parallel, keeping candidate order.
        self.candidates_into(query.features, scratch);
        let hits = bees_runtime::par_map(&scratch.cand_pos, |&pos| {
            self.linear.score(query, pos as usize)
        });
        rank_hits(hits.into_iter().flatten().collect(), query.k)
    }

    fn feature_bytes(&self) -> usize {
        self.linear.feature_bytes()
    }

    fn similarity_config(&self) -> &SimilarityConfig {
        self.linear.similarity_config()
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
    fn posting_lists_stay_sorted_under_out_of_order_inserts() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        let shared = random_features(&mut rng, 5);
        // Insert the same feature set under descending ids: the candidates
        // must still come back ascending.
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
