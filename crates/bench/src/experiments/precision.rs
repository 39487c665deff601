//! Shared extraction and top-4 precision measurement on Kentucky-like
//! groups.
//!
//! Mirrors the paper's protocol: every group image is indexed, one image
//! per group is re-queried, and precision is the average fraction of top-4
//! results that belong to the query's own group. Extraction fans out one
//! image per runtime task.

use bees_datasets::KentuckyGroup;
use bees_features::similarity::SimilarityConfig;
use bees_features::{FeatureExtractor, ImageFeatures};
use bees_image::{GrayImage, RgbImage};
use bees_index::{FeatureIndex, ImageId, LinearIndex};

/// Every view of every group extracted with `extractor`, one image per
/// runtime task, regrouped in group order.
pub fn extract_groups(
    groups: &[KentuckyGroup],
    extractor: &dyn FeatureExtractor,
) -> Vec<Vec<ImageFeatures>> {
    let views: Vec<&RgbImage> = groups.iter().flat_map(|g| &g.images).collect();
    let mut features =
        bees_runtime::par_map(&views, |img| extractor.extract(&img.to_gray())).into_iter();
    groups
        .iter()
        .map(|g| features.by_ref().take(g.images.len()).collect())
        .collect()
}

/// Indexes every view of every group with `extractor` (the server's
/// full-size extraction). View `k` of group `g` gets id
/// `g * GROUP_SIZE + k`.
pub fn kentucky_index(
    groups: &[KentuckyGroup],
    similarity: &SimilarityConfig,
    extractor: &dyn FeatureExtractor,
) -> LinearIndex {
    let mut index = LinearIndex::new(*similarity);
    for (g, views) in extract_groups(groups, extractor).into_iter().enumerate() {
        for (k, features) in views.into_iter().enumerate() {
            index.insert(
                ImageId((g * KentuckyGroup::GROUP_SIZE + k) as u64),
                features,
            );
        }
    }
    index
}

/// `extract` applied to each group's canonical view (`images[0]`), one
/// image per runtime task, in group order: the client's query features,
/// which may be approximate (e.g. from a compressed bitmap).
pub fn extract_queries<R, F>(groups: &[KentuckyGroup], extract: F) -> Vec<R>
where
    R: Send,
    F: Fn(&GrayImage) -> R + Sync,
{
    bees_runtime::par_map(groups, |group| extract(&group.images[0].to_gray()))
}

/// Measures top-4 precision: `queries[g]` is group `g`'s query, and the
/// result is the mean fraction of its top-4 hits in `index` (built by
/// [`kentucky_index`]) that are in its own group.
pub fn top4_precision(index: &LinearIndex, queries: &[ImageFeatures]) -> f64 {
    assert!(!queries.is_empty(), "need at least one group");
    let mut total = 0.0;
    for (g, query) in queries.iter().enumerate() {
        let hits = index.top_k(query, 4);
        let own = hits
            .iter()
            .filter(|h| (h.id.0 as usize) / KentuckyGroup::GROUP_SIZE == g)
            .count();
        total += own as f64 / 4.0;
    }
    total / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_datasets::{kentucky_like, SceneConfig};
    use bees_features::orb::Orb;
    use bees_features::FeatureExtractor;

    #[test]
    fn uncompressed_orb_precision_is_high() {
        let groups = kentucky_like(
            3,
            4,
            SceneConfig {
                width: 128,
                height: 96,
                n_shapes: 14,
                texture_amp: 8.0,
            },
        );
        let orb = Orb::default();
        let index = kentucky_index(&groups, &SimilarityConfig::default(), &orb);
        let p = top4_precision(&index, &extract_queries(&groups, |g| orb.extract(g)));
        assert!(p > 0.7, "precision {p}");
    }
}
