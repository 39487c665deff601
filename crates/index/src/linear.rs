//! Exact linear-scan index.

use crate::store::{rank_hits, ImageEntry, ImageId, QueryHit};
use crate::{FeatureIndex, Query, QueryScratch};
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::ImageFeatures;

/// Exact index: every query is scored against every stored image.
///
/// This is what the paper's server effectively does; [`MihIndex`] exists to
/// show (and benchmark) that the scan can be accelerated.
///
/// [`MihIndex`]: crate::MihIndex
///
/// # Examples
///
/// ```
/// use bees_index::{FeatureIndex, ImageId, LinearIndex};
/// use bees_features::similarity::SimilarityConfig;
/// use bees_features::ImageFeatures;
///
/// let mut index = LinearIndex::new(SimilarityConfig::default());
/// index.insert(ImageId(7), ImageFeatures::empty_binary());
/// assert!(index.max_similarity(&ImageFeatures::empty_binary()).is_none());
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearIndex {
    entries: Vec<ImageEntry>,
    config: SimilarityConfig,
}

impl LinearIndex {
    /// Creates an empty index with the given similarity configuration.
    pub fn new(config: SimilarityConfig) -> Self {
        LinearIndex {
            entries: Vec::new(),
            config,
        }
    }

    /// Iterates over stored entries.
    pub fn iter(&self) -> impl Iterator<Item = &ImageEntry> {
        self.entries.iter()
    }

    /// Removes the entry for `id`, returning whether it existed.
    pub fn remove(&mut self, id: ImageId) -> bool {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl FeatureIndex for LinearIndex {
    fn insert(&mut self, id: ImageId, features: ImageFeatures) {
        if let Some(pos) = self.entries.iter().position(|e| e.id == id) {
            self.entries[pos].features = features;
        } else {
            self.entries.push(ImageEntry { id, features });
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn query_with_scratch(&self, query: &Query<'_>, _scratch: &mut QueryScratch) -> Vec<QueryHit> {
        // Exact backend: the candidate budget does not apply — every stored
        // image is scored, one pair per work item on the runtime (results
        // come back in entry order).
        let hits = bees_runtime::par_map_range(self.entries.len(), |i| {
            let e = &self.entries[i];
            if !query.is_allowed(e.id) {
                return None;
            }
            let s = jaccard_similarity(query.features, &e.features, &self.config);
            (s > 0.0).then_some(QueryHit {
                id: e.id,
                similarity: s,
            })
        });
        rank_hits(hits.into_iter().flatten().collect(), query.k)
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
    use bees_features::descriptor::{BinaryDescriptor, Descriptors};
    use bees_features::{DescriptorBlock, Keypoint};

    fn features(seeds: &[usize]) -> ImageFeatures {
        let descs: Vec<BinaryDescriptor> = seeds
            .iter()
            .map(|&s| {
                let mut d = BinaryDescriptor::zero();
                for b in 0..8 {
                    d.set_bit((s * 29 + b * 31) % 256);
                }
                d
            })
            .collect();
        ImageFeatures {
            keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
            descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
        }
    }

    #[test]
    fn insert_and_query_roundtrip() {
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        idx.insert(ImageId(1), features(&[1, 2, 3, 4]));
        idx.insert(ImageId(2), features(&[10, 20, 30, 40]));
        let hit = idx.max_similarity(&features(&[1, 2, 3, 4])).unwrap();
        assert_eq!(hit.id, ImageId(1));
        assert!((hit.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reinsert_replaces() {
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        idx.insert(ImageId(1), features(&[1, 2]));
        idx.insert(ImageId(1), features(&[5, 6]));
        assert_eq!(idx.len(), 1);
        let hit = idx.max_similarity(&features(&[5, 6])).unwrap();
        assert!((hit.similarity - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_index_returns_none() {
        let idx = LinearIndex::new(SimilarityConfig::default());
        assert!(idx.max_similarity(&features(&[1])).is_none());
        assert!(idx.top_k(&features(&[1]), 5).is_empty());
    }

    #[test]
    fn top_k_ranks_by_similarity() {
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        // id 1 shares all 4, id 2 shares 2 of 4, id 3 shares none.
        idx.insert(ImageId(1), features(&[1, 2, 3, 4]));
        idx.insert(ImageId(2), features(&[1, 2, 90, 91]));
        idx.insert(ImageId(3), features(&[60, 61, 62, 63]));
        let hits = idx.top_k(&features(&[1, 2, 3, 4]), 10);
        assert!(hits.len() >= 2);
        assert_eq!(hits[0].id, ImageId(1));
        assert_eq!(hits[1].id, ImageId(2));
        assert!(hits[0].similarity > hits[1].similarity);
    }

    #[test]
    fn allow_list_filters_before_ranking() {
        use crate::Query;
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        idx.insert(ImageId(1), features(&[1, 2, 3, 4]));
        idx.insert(ImageId(2), features(&[1, 2, 3, 4]));
        idx.insert(ImageId(3), features(&[1, 2, 3, 4]));
        let probe = features(&[1, 2, 3, 4]);
        let allowed = [ImageId(2)];
        let hits = idx.query(&Query::top_k(&probe, 5).with_allowed(&allowed));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, ImageId(2));
        // An empty allow-list blanks the result entirely.
        assert!(idx
            .query(&Query::top_k(&probe, 5).with_allowed(&[]))
            .is_empty());
    }

    #[test]
    fn remove_deletes_entry() {
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        idx.insert(ImageId(1), features(&[1]));
        assert!(idx.remove(ImageId(1)));
        assert!(!idx.remove(ImageId(1)));
        assert!(idx.is_empty());
    }

    #[test]
    fn feature_bytes_accumulate() {
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        assert_eq!(idx.feature_bytes(), 0);
        idx.insert(ImageId(1), features(&[1, 2]));
        let one = idx.feature_bytes();
        assert!(one > 0);
        idx.insert(ImageId(2), features(&[3, 4]));
        assert_eq!(idx.feature_bytes(), 2 * one);
    }
}
