//! Deterministic sharding wrapper over any [`FeatureIndex`] backend.
//!
//! Images are partitioned over N inner indexes by `id % N`, so the shard an
//! image lands on — and therefore every shard's contents — is a pure
//! function of the inserted ids, never of timing or thread count. Queries
//! fan out to every shard in parallel; each shard returns its own ranked
//! top-`k`, and the per-shard lists are merged under the global total order
//! (descending similarity, ascending [`ImageId`]) and truncated to `k`.
//!
//! Because each shard's top-`k` is a superset of that shard's contribution
//! to the global top-`k`, the merged result is *exactly* the list an
//! unsharded index over the same images would return — the property the
//! fleet determinism tests pin down across shard counts 1/2/4. (The one
//! exception is a non-zero per-query candidate budget, which bounds work
//! per shard and therefore scales with the shard count; the server's
//! redundancy-detection path keeps the budget unlimited.)

use crate::scratch::QueryScratch;
use crate::store::{rank_hits, QueryHit};
use crate::{FeatureIndex, ImageId, Query};
use bees_features::similarity::SimilarityConfig;
use bees_features::ImageFeatures;
use bees_runtime::Runtime;

/// A fixed number of inner indexes, partitioned by `ImageId`.
///
/// # Examples
///
/// ```
/// use bees_index::{FeatureIndex, ImageId, MihIndex, ShardedIndex};
/// use bees_features::similarity::SimilarityConfig;
/// use bees_features::ImageFeatures;
///
/// let mut index = ShardedIndex::with_shards(4, || MihIndex::new(SimilarityConfig::default()));
/// index.insert(ImageId(9), ImageFeatures::empty_binary());
/// assert_eq!(index.len(), 1);
/// assert_eq!(index.n_shards(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct ShardedIndex<I> {
    shards: Vec<I>,
}

impl<I: FeatureIndex> ShardedIndex<I> {
    /// Wraps pre-built (typically empty) inner indexes as shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(shards: Vec<I>) -> Self {
        assert!(!shards.is_empty(), "sharded index needs at least one shard");
        ShardedIndex { shards }
    }

    /// Builds `n` shards from a constructor closure.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_shards(n: usize, make: impl FnMut() -> I) -> Self {
        assert!(n > 0, "sharded index needs at least one shard");
        let mut make = make;
        ShardedIndex::new((0..n).map(|_| make()).collect())
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard `id` is assigned to: `id % n_shards`, a pure function of
    /// the id so shard contents never depend on insertion timing.
    pub fn shard_of(&self, id: ImageId) -> usize {
        (id.0 % self.shards.len() as u64) as usize
    }

    /// Read access to one shard (for the scaling experiment's reporting).
    pub fn shard(&self, s: usize) -> &I {
        &self.shards[s]
    }
}

impl<I: FeatureIndex + Send + Sync> FeatureIndex for ShardedIndex<I> {
    fn insert(&mut self, id: ImageId, features: ImageFeatures) {
        let s = self.shard_of(id);
        self.shards[s].insert(id, features);
    }

    /// Partitions the batch by shard and inserts into all shards
    /// concurrently. Equivalent to sequential insertion because the
    /// partition preserves each shard's relative item order and shards are
    /// independent.
    fn insert_batch(&mut self, items: Vec<(ImageId, ImageFeatures)>) {
        let n = self.shards.len();
        let mut buckets: Vec<Vec<(ImageId, ImageFeatures)>> = (0..n).map(|_| Vec::new()).collect();
        for (id, features) in items {
            let s = (id.0 % n as u64) as usize;
            buckets[s].push((id, features));
        }
        let mut work: Vec<(&mut I, Vec<(ImageId, ImageFeatures)>)> =
            self.shards.iter_mut().zip(buckets).collect();
        Runtime::current().par_for_each_mut(&mut work, |_, (shard, bucket)| {
            for (id, features) in bucket.drain(..) {
                shard.insert(id, features);
            }
        });
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// Fans out with one child scratch per shard, so each inner index
    /// recycles its own buffers across queries. Shard order is fixed, so a
    /// given shard always receives the same child scratch. Each shard ranks
    /// its own hits; merging the per-shard top-k lists under the same total
    /// order reproduces the unsharded result.
    fn query_with_scratch(&self, query: &Query<'_>, scratch: &mut QueryScratch) -> Vec<QueryHit> {
        scratch.ensure_shards(self.shards.len());
        let mut work: Vec<(&I, &mut QueryScratch, Vec<QueryHit>)> = self
            .shards
            .iter()
            .zip(scratch.shards.iter_mut())
            .map(|(shard, child)| (shard, child, Vec::new()))
            .collect();
        Runtime::current().par_for_each_mut(&mut work, |_, (shard, child, out)| {
            *out = shard.query_with_scratch(query, child);
        });
        rank_hits(
            work.into_iter().flat_map(|(_, _, hits)| hits).collect(),
            query.k,
        )
    }

    fn feature_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.feature_bytes()).sum()
    }

    fn similarity_config(&self) -> &SimilarityConfig {
        self.shards[0].similarity_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LinearIndex, MihIndex};
    use bees_features::descriptor::BinaryDescriptor;
    use bees_features::{DescriptorBlock, Descriptors, Keypoint};
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

    /// Flips `k` bits of each descriptor.
    fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
        let Descriptors::Binary(descs) = &f.descriptors else {
            return f.clone();
        };
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
    }

    #[test]
    fn sharded_queries_match_unsharded_exactly() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let cfg = SimilarityConfig::default();
        let originals: Vec<ImageFeatures> =
            (0..24).map(|_| random_features(&mut rng, 10)).collect();
        let items: Vec<(ImageId, ImageFeatures)> = originals
            .iter()
            .enumerate()
            .map(|(i, f)| (ImageId(i as u64), f.clone()))
            .collect();

        let mut flat = MihIndex::new(cfg);
        flat.insert_batch(items.clone());
        for shards in [1usize, 2, 4, 7] {
            let mut idx = ShardedIndex::with_shards(shards, || MihIndex::new(cfg));
            idx.insert_batch(items.clone());
            assert_eq!(idx.len(), flat.len());
            for f in &originals {
                let noisy = perturb(f, &mut rng.clone(), 2);
                assert_eq!(
                    idx.query(&Query::top_k(&noisy, 5)),
                    flat.query(&Query::top_k(&noisy, 5)),
                    "shards={shards}"
                );
            }
        }
    }

    #[test]
    fn allow_list_is_applied_below_the_shard_merge() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let cfg = SimilarityConfig::default();
        let shared = random_features(&mut rng, 8);
        let items: Vec<(ImageId, ImageFeatures)> =
            (0..16u64).map(|i| (ImageId(i), shared.clone())).collect();
        let mut flat = MihIndex::new(cfg);
        flat.insert_batch(items.clone());
        let allowed: Vec<ImageId> = [3u64, 7, 8, 13].into_iter().map(ImageId).collect();
        let expect = flat.query(&Query::top_k(&shared, 10).with_allowed(&allowed));
        assert_eq!(expect.len(), 4);
        for shards in [2usize, 4] {
            let mut idx = ShardedIndex::with_shards(shards, || MihIndex::new(cfg));
            idx.insert_batch(items.clone());
            let got = idx.query(&Query::top_k(&shared, 10).with_allowed(&allowed));
            assert_eq!(got, expect, "shards={shards}");
            assert!(got.iter().all(|h| allowed.contains(&h.id)));
        }
    }

    #[test]
    fn insert_batch_partitions_by_id() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let mut idx =
            ShardedIndex::with_shards(3, || LinearIndex::new(SimilarityConfig::default()));
        let items: Vec<(ImageId, ImageFeatures)> = (0..9u64)
            .map(|i| (ImageId(i), random_features(&mut rng, 4)))
            .collect();
        idx.insert_batch(items);
        assert_eq!(idx.len(), 9);
        for s in 0..3 {
            assert_eq!(idx.shard(s).len(), 3, "shard {s}");
        }
        assert_eq!(idx.shard_of(ImageId(7)), 1);
    }

    #[test]
    fn reinsert_lands_on_the_same_shard() {
        let mut rng = ChaCha8Rng::seed_from_u64(29);
        let mut idx = ShardedIndex::with_shards(2, || MihIndex::new(SimilarityConfig::default()));
        let f1 = random_features(&mut rng, 6);
        let f2 = random_features(&mut rng, 6);
        idx.insert(ImageId(4), f1.clone());
        idx.insert(ImageId(4), f2.clone());
        assert_eq!(idx.len(), 1);
        assert!(idx.max_similarity(&f1).is_none());
        let hit = idx.max_similarity(&f2).unwrap();
        assert_eq!(hit.id, ImageId(4));
    }
}
