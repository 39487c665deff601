//! Reusable per-query scratch storage.
//!
//! A query against an accelerated backend fills transient buffers: the
//! candidate list that [`MihIndex::candidates_into`] collects, sorts and
//! deduplicates in place, and — for a [`ShardedIndex`] — one per shard.
//! Allocating those fresh on every query puts the allocator on the hot
//! path at fleet scale, so callers that issue many queries (the server, the
//! benches) hold one [`QueryScratch`] per query stream and thread it
//! through [`FeatureIndex::query_with_scratch`].
//!
//! Lifetime rules (also documented in `DESIGN.md` §10):
//!
//! * a `QueryScratch` belongs to exactly one query stream at a time — it is
//!   `&mut` for the duration of each query and never shared across threads;
//! * the buffers inside only ever grow (high-water-mark recycling), so a
//!   warmed scratch makes candidate generation allocation-free at any
//!   index size (pinned by the allocation-count test in
//!   `crates/index/tests/alloc_counts.rs`); a query still allocates its
//!   returned hit list;
//! * scratch contents are *outputs plus garbage*: nothing read from a
//!   scratch influences scoring, so reusing one can never change results —
//!   the determinism suite pins query results byte-identical with and
//!   without scratch reuse.
//!
//! [`MihIndex::candidates_into`]: crate::MihIndex::candidates_into
//! [`ShardedIndex`]: crate::ShardedIndex
//! [`FeatureIndex::query_with_scratch`]: crate::FeatureIndex::query_with_scratch

/// Recycled buffers for one query stream (see the module docs).
///
/// # Examples
///
/// ```
/// use bees_index::{FeatureIndex, ImageId, MihIndex, Query, QueryScratch};
/// use bees_features::similarity::SimilarityConfig;
/// use bees_features::ImageFeatures;
///
/// let mut index = MihIndex::new(SimilarityConfig::default());
/// index.insert(ImageId(1), ImageFeatures::empty_binary());
/// let probe = ImageFeatures::empty_binary();
/// let mut scratch = QueryScratch::new();
/// // Same results as `index.query(..)`, without per-query allocations.
/// let hits = index.query_with_scratch(&Query::new(&probe), &mut scratch);
/// assert!(hits.is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Deduplicated, ascending candidate positions from the latest MIH
    /// probe.
    pub(crate) cand_pos: Vec<u32>,
    /// Child scratches, one per shard, for `ShardedIndex` fan-out.
    pub(crate) shards: Vec<QueryScratch>,
}

impl QueryScratch {
    /// Creates an empty scratch; buffers grow to their steady-state sizes
    /// over the first few queries.
    pub fn new() -> Self {
        QueryScratch::default()
    }

    /// The candidates found by the most recent accelerated query or
    /// [`MihIndex::candidates_into`](crate::MihIndex::candidates_into) call
    /// through this scratch, as positions in the index's insertion order
    /// (ascending, deduplicated). Exposed for tests.
    pub fn candidates(&self) -> &[u32] {
        &self.cand_pos
    }

    /// Grows the per-shard child list to at least `n` entries.
    pub(crate) fn ensure_shards(&mut self, n: usize) {
        if self.shards.len() < n {
            self.shards.resize_with(n, QueryScratch::default);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_shards_grows_but_never_shrinks() {
        let mut s = QueryScratch::new();
        s.ensure_shards(4);
        assert_eq!(s.shards.len(), 4);
        s.ensure_shards(2);
        assert_eq!(s.shards.len(), 4);
        s.ensure_shards(6);
        assert_eq!(s.shards.len(), 6);
    }

    #[test]
    fn fresh_scratch_reports_no_candidates() {
        assert!(QueryScratch::new().candidates().is_empty());
    }
}
