//! Shared storage types for the index backends.

use std::fmt;

/// Opaque identifier of an indexed image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub u64);

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img#{}", self.0)
    }
}

/// One query result: which image matched and how similar it is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryHit {
    /// Identifier of the matching stored image.
    pub id: ImageId,
    /// Jaccard similarity in `[0, 1]`.
    pub similarity: f64,
}

/// Sorts hits by descending similarity with deterministic id tie-breaking
/// and truncates to `k`.
pub(crate) fn rank_hits(mut hits: Vec<QueryHit>, k: usize) -> Vec<QueryHit> {
    hits.sort_by(|a, b| {
        b.similarity
            .partial_cmp(&a.similarity)
            .expect("similarities are finite")
            .then(a.id.0.cmp(&b.id.0))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_compact() {
        assert_eq!(ImageId(42).to_string(), "img#42");
    }

    #[test]
    fn rank_hits_orders_and_truncates() {
        let hits = vec![
            QueryHit {
                id: ImageId(3),
                similarity: 0.5,
            },
            QueryHit {
                id: ImageId(1),
                similarity: 0.9,
            },
            QueryHit {
                id: ImageId(2),
                similarity: 0.5,
            },
        ];
        let ranked = rank_hits(hits, 2);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].id, ImageId(1));
        // Tie at 0.5 broken toward the smaller id.
        assert_eq!(ranked[1].id, ImageId(2));
    }
}
