//! Brute-force descriptor matching with cross-checking.
//!
//! The Jaccard similarity of Eq. 2 needs `|S1 ∩ S2|` — the number of
//! descriptor pairs that agree. Binary descriptors match when their Hamming
//! distance is below a threshold; vector descriptors use Lowe's ratio test
//! plus an absolute distance cut. Cross-checking (mutual nearest neighbors)
//! removes most one-sided false matches. For binary sets, both directions
//! come from one pass of the block's pair kernel, which computes each
//! distance of a pair once; [`match_binary_exhaustive`] is the unpruned
//! reference it is tested against.

use crate::block::DescriptorBlock;
use crate::descriptor::{BinaryDescriptor, Descriptors, VectorDescriptor};

/// A correspondence between descriptor `query_idx` in set A and
/// `train_idx` in set B.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureMatch {
    /// Index into the first (query) descriptor set.
    pub query_idx: usize,
    /// Index into the second (train) descriptor set.
    pub train_idx: usize,
    /// Distance between the two descriptors (Hamming or Euclidean).
    pub distance: f32,
}

/// Matching thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Maximum Hamming distance (out of 256) for a binary match.
    pub max_hamming: u32,
    /// Maximum Euclidean distance for a vector match (descriptors are
    /// unit-normalized, so 2.0 disables the cut).
    pub max_l2: f32,
    /// Lowe ratio: best distance must be below `ratio` × second-best.
    pub lowe_ratio: f32,
    /// Require mutual nearest neighbors.
    pub cross_check: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            max_hamming: 64,
            max_l2: 0.9,
            lowe_ratio: 0.9,
            cross_check: true,
        }
    }
}

/// Matches two binary descriptor sets by exhaustive Hamming search — the
/// descriptor hot loop.
///
/// Returns mutual nearest-neighbor pairs within `config.max_hamming`
/// (ties broken toward the lower train index, so the result is
/// deterministic). The Lowe ratio test is skipped for binary sets — with
/// 256-bit descriptors the absolute threshold plus cross-check is standard.
///
/// Runs sequentially: one call scores one pair of sets, and every
/// production caller (MIH and linear rescoring, the SSMM pairwise graph)
/// already fans out over whole pairs. One pass of the block's pair kernel
/// computes each of the pair's distances once and keeps both the forward
/// and the backward nearest neighbor of every row, so the cross-check
/// costs no second scan.
///
/// The kernel's pruning cannot change the emitted matches. It skips a
/// pair only when the distance over its first two words already exceeds
/// `max_hamming`. A query row whose nearest neighbor is that far is
/// filtered either way, and the cross-check reads the backward nearest
/// only of a train row that some query row matched within `max_hamming`,
/// so that row's nearest lies within it too. The parity suite pins this
/// against [`match_binary_exhaustive`] on every tier the host has.
pub fn match_binary(
    query: &DescriptorBlock,
    train: &DescriptorBlock,
    config: &MatchConfig,
) -> Vec<FeatureMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let cap = config.max_hamming.min(BinaryDescriptor::BITS as u32);
    let (forward, backward) = query.nearest_keys(train, cap);
    collect_binary_matches(&forward, &backward, config)
}

/// Unpruned reference implementation of [`match_binary`] over
/// per-descriptor objects.
///
/// Compares every pair with [`BinaryDescriptor::hamming_distance`], once
/// per direction. A supported API: it is the ground truth for the parity
/// tests; production paths use [`match_binary`].
pub fn match_binary_exhaustive(
    query: &[BinaryDescriptor],
    train: &[BinaryDescriptor],
    config: &MatchConfig,
) -> Vec<FeatureMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    // Each row's first argmin, as the key `distance << 32 | index`.
    let nearest = |from: &[BinaryDescriptor], to: &[BinaryDescriptor]| -> Vec<u64> {
        from.iter()
            .map(|d| {
                let mut best = (usize::MAX, u32::MAX);
                for (j, t) in to.iter().enumerate() {
                    let dist = d.hamming_distance(t);
                    if dist < best.1 {
                        best = (j, dist);
                    }
                }
                (u64::from(best.1) << 32) | best.0 as u64
            })
            .collect()
    };
    let forward = nearest(query, train);
    let backward = if config.cross_check {
        nearest(train, query)
    } else {
        Vec::new()
    };
    collect_binary_matches(&forward, &backward, config)
}

/// Emits the final match list from per-row nearest-neighbor keys
/// (`distance << 32 | index`, `u64::MAX` for a row with none; shared by the
/// block and reference paths so filtering can never drift).
pub(crate) fn collect_binary_matches(
    forward: &[u64],
    backward: &[u64],
    config: &MatchConfig,
) -> Vec<FeatureMatch> {
    // Sized for the most matches possible, so the allocation count does
    // not depend on how many rows match.
    let mut matches = Vec::with_capacity(forward.len());
    for (qi, &key) in forward.iter().enumerate() {
        let (dist, ti) = ((key >> 32) as u32, key as u32 as usize);
        if key == u64::MAX || dist > config.max_hamming {
            continue;
        }
        if config.cross_check && backward[ti] as u32 as usize != qi {
            continue;
        }
        matches.push(FeatureMatch {
            query_idx: qi,
            train_idx: ti,
            distance: dist as f32,
        });
    }
    matches
}

/// Matches two vector descriptor sets by exhaustive L2 search with Lowe's
/// ratio test and optional cross-checking.
pub fn match_vector(
    query: &[VectorDescriptor],
    train: &[VectorDescriptor],
    config: &MatchConfig,
) -> Vec<FeatureMatch> {
    if query.is_empty() || train.is_empty() {
        return Vec::new();
    }
    let two_nearest =
        |from: &[VectorDescriptor], to: &[VectorDescriptor]| -> Vec<(usize, f32, f32)> {
            from.iter()
                .map(|d| {
                    let mut best = (usize::MAX, f32::INFINITY);
                    let mut second = f32::INFINITY;
                    for (j, t) in to.iter().enumerate() {
                        let dist = d.l2_squared(t);
                        if dist < best.1 {
                            second = best.1;
                            best = (j, dist);
                        } else if dist < second {
                            second = dist;
                        }
                    }
                    (best.0, best.1.sqrt(), second.sqrt())
                })
                .collect()
        };
    let forward = two_nearest(query, train);
    let backward = if config.cross_check {
        two_nearest(train, query)
    } else {
        Vec::new()
    };
    let mut matches = Vec::new();
    for (qi, &(ti, dist, second)) in forward.iter().enumerate() {
        if ti == usize::MAX || dist > config.max_l2 {
            continue;
        }
        // Lowe ratio test (only meaningful when there are >= 2 candidates).
        if second.is_finite() && dist > config.lowe_ratio * second {
            continue;
        }
        if config.cross_check && backward[ti].0 != qi {
            continue;
        }
        matches.push(FeatureMatch {
            query_idx: qi,
            train_idx: ti,
            distance: dist,
        });
    }
    matches
}

/// Matches two [`Descriptors`] values of the same kind.
///
/// Returns an empty match list when the kinds differ (an ORB client can
/// never match against a SIFT index; the system never mixes them).
pub fn match_descriptors(
    a: &Descriptors,
    b: &Descriptors,
    config: &MatchConfig,
) -> Vec<FeatureMatch> {
    match (a, b) {
        (Descriptors::Binary(x), Descriptors::Binary(y)) => match_binary(x, y, config),
        (Descriptors::Vector(x), Descriptors::Vector(y)) => match_vector(x, y, config),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc_with_bits(bits: &[usize]) -> BinaryDescriptor {
        let mut d = BinaryDescriptor::zero();
        for &b in bits {
            d.set_bit(b);
        }
        d
    }

    fn block(descs: &[BinaryDescriptor]) -> DescriptorBlock {
        DescriptorBlock::from_descriptors(descs)
    }

    #[test]
    fn identical_sets_match_fully() {
        let set = block(
            &(0..8)
                .map(|i| desc_with_bits(&[i * 30, i * 30 + 1, 200 - i]))
                .collect::<Vec<_>>(),
        );
        let m = match_binary(&set, &set, &MatchConfig::default());
        assert_eq!(m.len(), set.len());
        for mm in &m {
            assert_eq!(mm.query_idx, mm.train_idx);
            assert_eq!(mm.distance, 0.0);
        }
    }

    #[test]
    fn distant_descriptors_do_not_match() {
        let a = block(&[desc_with_bits(&(0..100).collect::<Vec<_>>())]);
        let b = block(&[desc_with_bits(&(100..250).collect::<Vec<_>>())]);
        let m = match_binary(&a, &b, &MatchConfig::default());
        assert!(m.is_empty());
    }

    #[test]
    fn cross_check_removes_asymmetric_matches() {
        // Both b0 and b1 are nearest to a0, but a0's nearest is b0 only.
        let a = block(&[desc_with_bits(&[0, 1, 2])]);
        let b = block(&[
            desc_with_bits(&[0, 1, 2, 3]),
            desc_with_bits(&[0, 1, 2, 3, 4, 5]),
        ]);
        let cfg = MatchConfig {
            cross_check: true,
            ..MatchConfig::default()
        };
        let m = match_binary(&b, &a, &cfg);
        // Only b0 <-> a0 survives; b1's nearest in a is a0 but a0's nearest
        // in b is b0.
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].query_idx, 0);
    }

    #[test]
    fn empty_inputs_yield_no_matches() {
        let a = DescriptorBlock::new();
        let b = block(&[BinaryDescriptor::zero()]);
        assert!(match_binary(&a, &b, &MatchConfig::default()).is_empty());
        assert!(match_binary(&b, &a, &MatchConfig::default()).is_empty());
    }

    #[test]
    fn vector_matching_respects_ratio_test() {
        let q = vec![VectorDescriptor::from_values(vec![1.0, 0.0])];
        // Two near-identical candidates: ambiguous, ratio test kills it.
        let t_ambiguous = vec![
            VectorDescriptor::from_values(vec![0.95, 0.05]),
            VectorDescriptor::from_values(vec![0.94, 0.06]),
        ];
        let cfg = MatchConfig {
            lowe_ratio: 0.8,
            max_l2: 2.0,
            ..MatchConfig::default()
        };
        assert!(match_vector(&q, &t_ambiguous, &cfg).is_empty());
        // One clear winner passes.
        let t_clear = vec![
            VectorDescriptor::from_values(vec![0.99, 0.01]),
            VectorDescriptor::from_values(vec![-1.0, 0.0]),
        ];
        let m = match_vector(&q, &t_clear, &cfg);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].train_idx, 0);
    }

    #[test]
    fn mixed_descriptor_kinds_do_not_match() {
        let a = Descriptors::Binary(block(&[BinaryDescriptor::zero()]));
        let b = Descriptors::Vector(vec![VectorDescriptor::from_values(vec![0.0; 4])]);
        assert!(match_descriptors(&a, &b, &MatchConfig::default()).is_empty());
    }

    #[test]
    fn single_candidate_vector_match_skips_ratio() {
        let q = vec![VectorDescriptor::from_values(vec![1.0, 0.0])];
        let t = vec![VectorDescriptor::from_values(vec![0.99, 0.01])];
        let m = match_vector(&q, &t, &MatchConfig::default());
        assert_eq!(m.len(), 1);
    }
}
