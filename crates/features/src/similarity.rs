//! Image similarity: the paper's Eq. 2.
//!
//! "An image `I_i` can be represented as a set of ORB features `S_i`. The
//! similarity of two images `I_1` and `I_2` can be computed as the Jaccard
//! similarity of sets `S_1` and `S_2`":
//!
//! ```text
//! sim(I1, I2) = |S1 ∩ S2| / |S1 ∪ S2|
//! ```
//!
//! where the intersection is the number of matched descriptor pairs and the
//! union is `|S1| + |S2| − |S1 ∩ S2|`.

use crate::descriptor::ImageFeatures;
use crate::matcher::{match_descriptors, MatchConfig};

/// A similarity score in `[0, 1]` between two images' feature sets.
pub type Similarity = f64;

/// Configuration for similarity scoring (delegates to matching thresholds).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimilarityConfig {
    /// Matching thresholds used to compute `|S1 ∩ S2|`.
    pub matching: MatchConfig,
}

/// Computes the Jaccard similarity (Eq. 2) of two feature sets.
///
/// Two empty sets are defined to have similarity 0 (an image with no
/// features carries no evidence of redundancy, so it is never deduplicated).
///
/// # Examples
///
/// ```
/// use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
/// use bees_features::ImageFeatures;
///
/// let empty = ImageFeatures::empty_binary();
/// assert_eq!(jaccard_similarity(&empty, &empty, &SimilarityConfig::default()), 0.0);
/// ```
pub fn jaccard_similarity(
    a: &ImageFeatures,
    b: &ImageFeatures,
    config: &SimilarityConfig,
) -> Similarity {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let matches = match_descriptors(&a.descriptors, &b.descriptors, &config.matching);
    let intersection = matches.len();
    let union = a.len() + b.len() - intersection;
    if union == 0 {
        return 0.0;
    }
    intersection as f64 / union as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::{BinaryDescriptor, Descriptors};
    use crate::keypoint::Keypoint;
    use crate::DescriptorBlock;

    fn features_from(descs: Vec<BinaryDescriptor>) -> ImageFeatures {
        ImageFeatures {
            keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
            descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
        }
    }

    fn desc(bits: &[usize]) -> BinaryDescriptor {
        let mut d = BinaryDescriptor::zero();
        for &b in bits {
            d.set_bit(b);
        }
        d
    }

    #[test]
    fn identical_sets_have_similarity_one() {
        let f = features_from((0..10).map(|i| desc(&[i * 20, i * 20 + 5])).collect());
        let s = jaccard_similarity(&f, &f, &SimilarityConfig::default());
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn disjoint_sets_have_similarity_zero() {
        let a = features_from(vec![desc(&(0..120).collect::<Vec<_>>())]);
        let b = features_from(vec![desc(&(130..250).collect::<Vec<_>>())]);
        assert_eq!(
            jaccard_similarity(&a, &b, &SimilarityConfig::default()),
            0.0
        );
    }

    #[test]
    fn partial_overlap_gives_expected_jaccard() {
        // 4 descriptors in each set; 2 identical pairs -> J = 2 / (4+4-2).
        let shared: Vec<BinaryDescriptor> = (0..2)
            .map(|i| desc(&[i * 17, i * 17 + 3, 200 + i]))
            .collect();
        let mut a_desc = shared.clone();
        a_desc.push(desc(&(0..90).collect::<Vec<_>>()));
        a_desc.push(desc(&(90..180).collect::<Vec<_>>()));
        let mut b_desc = shared;
        b_desc.push(desc(&(10..100).step_by(2).collect::<Vec<_>>()));
        b_desc.push(desc(&(101..240).step_by(3).collect::<Vec<_>>()));
        let a = features_from(a_desc);
        let b = features_from(b_desc);
        let s = jaccard_similarity(&a, &b, &SimilarityConfig::default());
        assert!((s - 2.0 / 6.0).abs() < 0.2, "got {s}");
    }

    #[test]
    fn empty_set_similarity_is_zero() {
        let a = ImageFeatures::empty_binary();
        let b = features_from(vec![desc(&[1, 2, 3])]);
        assert_eq!(
            jaccard_similarity(&a, &b, &SimilarityConfig::default()),
            0.0
        );
        assert_eq!(
            jaccard_similarity(&b, &a, &SimilarityConfig::default()),
            0.0
        );
    }

    #[test]
    fn similarity_is_symmetric() {
        let a = features_from((0..6).map(|i| desc(&[i * 40, i * 40 + 2])).collect());
        let b = features_from(
            (3..9)
                .map(|i| desc(&[(i * 40) % 256, (i * 40 + 2) % 256]))
                .collect(),
        );
        let cfg = SimilarityConfig::default();
        let s1 = jaccard_similarity(&a, &b, &cfg);
        let s2 = jaccard_similarity(&b, &a, &cfg);
        assert!((s1 - s2).abs() < 1e-9);
    }
}
