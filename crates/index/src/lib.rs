#![warn(missing_docs)]

//! Server-side image feature index for the BEES reproduction.
//!
//! Cross-Batch Redundancy Detection (paper §III-B1) works by "querying the
//! server index": the client uploads an image's features, the server finds
//! the *maximum similarity* against every stored image, and the image is
//! declared redundant when that similarity exceeds the threshold `T`.
//! The Kentucky precision experiments additionally need top-k queries.
//!
//! Two backends are provided:
//!
//! * [`LinearIndex`] — exact: scores the query against every stored image,
//! * [`MihIndex`] — a [`LinearIndex`] plus multi-index hashing over the
//!   four 64-bit words of each 256-bit ORB descriptor, looked up by their
//!   32-bit halves: images sharing no descriptor word with the query
//!   (within the multi-probe radius) are skipped; survivors are rescored
//!   exactly.
//!
//! Both score a candidate with the one Jaccard scorer,
//! [`jaccard_similarity`](bees_features::similarity::jaccard_similarity),
//! over the descriptor blocks the stored features already carry.
//!
//! Any backend can additionally be wrapped in a [`ShardedIndex`], which
//! partitions images over N inner indexes by `ImageId` and fans queries out
//! to every shard in parallel (merging in a deterministic total order), for
//! fleet-scale ingest.
//!
//! # Examples
//!
//! ```
//! use bees_index::{ImageId, LinearIndex, FeatureIndex, Query};
//! use bees_features::ImageFeatures;
//! use bees_features::similarity::SimilarityConfig;
//!
//! let mut index = LinearIndex::new(SimilarityConfig::default());
//! index.insert(ImageId(1), ImageFeatures::empty_binary());
//! assert_eq!(index.len(), 1);
//! let probe = ImageFeatures::empty_binary();
//! assert!(index.query(&Query::new(&probe)).is_empty());
//! ```

mod linear;
mod mih;
mod scratch;
mod sharded;
mod store;

pub use linear::LinearIndex;
pub use mih::MihIndex;
pub use scratch::QueryScratch;
pub use sharded::ShardedIndex;
pub use store::{ImageId, QueryHit};

use bees_features::similarity::SimilarityConfig;
use bees_features::ImageFeatures;

/// A similarity query: the probe features, a result budget and an
/// optional allow-list.
#[derive(Debug, Clone, Copy)]
pub struct Query<'a> {
    /// Features to match against the stored images.
    pub features: &'a ImageFeatures,
    /// Maximum number of hits returned (result budget).
    pub k: usize,
    /// Optional id allow-list (sorted ascending): images outside it score
    /// as if absent. `None` means every stored image is eligible. This is
    /// how side-table predicates (geo radius, time window) are pushed
    /// *below* the shard merge — each shard drops disallowed ids before
    /// ranking, so the merged result equals filtering an unsharded scan.
    pub allowed: Option<&'a [ImageId]>,
}

impl<'a> Query<'a> {
    /// A max-similarity probe: the best single hit.
    pub fn new(features: &'a ImageFeatures) -> Self {
        Query::top_k(features, 1)
    }

    /// A top-`k` probe.
    pub fn top_k(features: &'a ImageFeatures, k: usize) -> Self {
        Query {
            features,
            k,
            allowed: None,
        }
    }

    /// Restricts scoring to `ids`, which **must be sorted ascending**
    /// (backends membership-test with binary search). Images outside the
    /// list are skipped before ranking.
    #[must_use]
    pub fn with_allowed(mut self, ids: &'a [ImageId]) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "allow-list unsorted");
        self.allowed = Some(ids);
        self
    }

    /// Whether `id` passes the allow-list (vacuously true without one).
    pub fn is_allowed(&self, id: ImageId) -> bool {
        match self.allowed {
            None => true,
            Some(ids) => ids.binary_search(&id).is_ok(),
        }
    }
}

/// A queryable image-feature index.
///
/// Implemented by [`LinearIndex`] (exact), [`MihIndex`] (accelerated) and
/// [`ShardedIndex`] (partitioned composition of either). Backends
/// implement [`query_with_scratch`] once; `query`, `max_similarity` and
/// `top_k` are derived conveniences.
///
/// [`query_with_scratch`]: FeatureIndex::query_with_scratch
pub trait FeatureIndex {
    /// Inserts an image's features under `id`, which must not be indexed
    /// yet: the server gives each upload a fresh id, so no backend
    /// replaces stored features (debug builds check this).
    fn insert(&mut self, id: ImageId, features: ImageFeatures);

    /// Inserts a batch of images. Sharded backends override this to build
    /// all shards concurrently; the result must equal (and for every
    /// in-tree backend does equal) inserting the items one by one in order.
    fn insert_batch(&mut self, items: Vec<(ImageId, ImageFeatures)>) {
        for (id, features) in items {
            self.insert(id, features);
        }
    }

    /// Number of indexed images.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs a query, returning up to `query.k` hits ordered by descending
    /// similarity with ascending-`ImageId` tie-breaking. Zero-score images
    /// are omitted. The ordering is a total order, so the result is unique
    /// — backends parallelizing internally must return exactly this list.
    ///
    /// Backends with per-query transient state ([`MihIndex`]'s candidate
    /// list, [`ShardedIndex`]'s per-shard fan-out) recycle
    /// `scratch` instead of allocating; the exact [`LinearIndex`] ignores
    /// it. Scratch contents never influence scoring, so the result does
    /// not depend on which scratch a caller passes.
    fn query_with_scratch(&self, query: &Query<'_>, scratch: &mut QueryScratch) -> Vec<QueryHit>;

    /// [`query_with_scratch`](FeatureIndex::query_with_scratch) on a fresh
    /// scratch.
    fn query(&self, query: &Query<'_>) -> Vec<QueryHit> {
        self.query_with_scratch(query, &mut QueryScratch::new())
    }

    /// Finds the stored image with the highest Jaccard similarity to
    /// `features`, or `None` when the index is empty or every score is
    /// zero.
    fn max_similarity(&self, features: &ImageFeatures) -> Option<QueryHit> {
        self.query(&Query::new(features)).into_iter().next()
    }

    /// Returns up to `k` hits ordered by descending similarity. Zero-score
    /// images are omitted.
    fn top_k(&self, features: &ImageFeatures, k: usize) -> Vec<QueryHit> {
        self.query(&Query::top_k(features, k))
    }

    /// Total stored feature payload in bytes (Table I's space overhead).
    fn feature_bytes(&self) -> usize;

    /// Similarity configuration used for scoring.
    fn similarity_config(&self) -> &SimilarityConfig;
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_i: &dyn FeatureIndex) {}
    }

    #[test]
    fn query_builder_sets_budgets() {
        let f = ImageFeatures::empty_binary();
        assert_eq!(Query::top_k(&f, 7).k, 7);
        assert_eq!(Query::new(&f).k, 1);
        assert!(Query::new(&f).allowed.is_none());
    }

    #[test]
    fn allow_list_membership_is_binary_searched() {
        let f = ImageFeatures::empty_binary();
        let ids = [ImageId(2), ImageId(5), ImageId(9)];
        let q = Query::new(&f).with_allowed(&ids);
        assert!(q.is_allowed(ImageId(2)));
        assert!(q.is_allowed(ImageId(9)));
        assert!(!q.is_allowed(ImageId(4)));
        // No allow-list admits everything.
        assert!(Query::new(&f).is_allowed(ImageId(4)));
    }
}
