//! Property tests of the feature substrate: the Hamming distance is a
//! metric, matching is one-to-one under cross-check, and Jaccard
//! similarity behaves like a similarity.

use bees_features::descriptor::{BinaryDescriptor, VectorDescriptor};
use bees_features::matcher::{match_binary, match_vector, MatchConfig};
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::{DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees_rng::{check, ChaCha8Rng};

const CASES: u64 = 64;

fn arb_descriptor(rng: &mut ChaCha8Rng) -> BinaryDescriptor {
    let mut bytes = [0u8; 32];
    rng.fill(&mut bytes);
    BinaryDescriptor::from_bytes(bytes)
}

/// Between `lo` and `hi - 1` random descriptors.
fn arb_descriptors(rng: &mut ChaCha8Rng, lo: usize, hi: usize) -> Vec<BinaryDescriptor> {
    (0..rng.gen_range(lo..hi))
        .map(|_| arb_descriptor(rng))
        .collect()
}

/// `len` values drawn from `range`.
fn arb_values(rng: &mut ChaCha8Rng, len: usize, range: std::ops::Range<f32>) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(range.clone())).collect()
}

/// Up to 11 four-dimensional vectors with components in `[-1, 1)`.
fn arb_vectors(rng: &mut ChaCha8Rng) -> Vec<VectorDescriptor> {
    (0..rng.gen_range(0..12))
        .map(|_| VectorDescriptor::from_values(arb_values(rng, 4, -1.0..1.0)))
        .collect()
}

fn features(descs: Vec<BinaryDescriptor>) -> ImageFeatures {
    ImageFeatures {
        keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
    }
}

#[test]
fn hamming_distance_is_a_metric() {
    check(CASES, |rng| {
        let (a, b, c) = (
            arb_descriptor(rng),
            arb_descriptor(rng),
            arb_descriptor(rng),
        );
        // Identity of indiscernibles.
        assert_eq!(a.hamming_distance(&a), 0);
        assert_eq!(a.hamming_distance(&b) == 0, a == b);
        // Symmetry.
        assert_eq!(a.hamming_distance(&b), b.hamming_distance(&a));
        // Triangle inequality.
        assert!(a.hamming_distance(&c) <= a.hamming_distance(&b) + b.hamming_distance(&c));
        // Bounded by the descriptor width.
        assert!(a.hamming_distance(&b) <= 256);
    });
}

#[test]
fn bit_flips_move_distance_by_exactly_one() {
    check(CASES, |rng| {
        let a = arb_descriptor(rng);
        let bit = rng.gen_range(0..256usize);
        let mut bytes = *a.as_bytes();
        bytes[bit / 8] ^= 1 << (bit % 8);
        let flipped = BinaryDescriptor::from_bytes(bytes);
        assert_eq!(a.hamming_distance(&flipped), 1);
    });
}

#[test]
fn matches_reference_valid_indices() {
    check(CASES, |rng| {
        let a = arb_descriptors(rng, 0, 20);
        let b = arb_descriptors(rng, 0, 20);
        let cfg = MatchConfig {
            max_hamming: 256,
            ..MatchConfig::default()
        };
        let (ab, bb) = (
            DescriptorBlock::from_descriptors(&a),
            DescriptorBlock::from_descriptors(&b),
        );
        for m in match_binary(&ab, &bb, &cfg) {
            assert!(m.query_idx < a.len());
            assert!(m.train_idx < b.len());
            assert_eq!(
                m.distance,
                a[m.query_idx].hamming_distance(&b[m.train_idx]) as f32
            );
        }
    });
}

#[test]
fn exact_duplicates_always_match_themselves() {
    check(CASES, |rng| {
        // Deduplicate first: identical descriptors are legitimately
        // ambiguous under cross-check.
        let mut unique = arb_descriptors(rng, 1, 15);
        unique.sort_by_key(|d| *d.as_bytes());
        unique.dedup();
        let block = DescriptorBlock::from_descriptors(&unique);
        let matches = match_binary(&block, &block, &MatchConfig::default());
        assert_eq!(matches.len(), unique.len());
        for m in matches {
            assert_eq!(m.query_idx, m.train_idx);
        }
    });
}

#[test]
fn jaccard_with_self_is_one_or_zero() {
    check(CASES, |rng| {
        let f = features(arb_descriptors(rng, 0, 20));
        let s = jaccard_similarity(&f, &f, &SimilarityConfig::default());
        if f.is_empty() {
            assert_eq!(s, 0.0);
        } else {
            assert!((s - 1.0).abs() < 1e-12);
        }
    });
}

#[test]
fn jaccard_never_exceeds_size_ratio() {
    check(CASES, |rng| {
        // |A ∩ B| <= min(|A|, |B|), so J <= min/max.
        let fa = features(arb_descriptors(rng, 1, 20));
        let fb = features(arb_descriptors(rng, 1, 20));
        let bound = fa.len().min(fb.len()) as f64 / fa.len().max(fb.len()) as f64;
        let s = jaccard_similarity(&fa, &fb, &SimilarityConfig::default());
        assert!(s <= bound + 1e-12, "J {s} exceeds bound {bound}");
    });
}

#[test]
fn vector_matching_indices_are_valid() {
    check(CASES, |rng| {
        let va = arb_vectors(rng);
        let vb = arb_vectors(rng);
        let cfg = MatchConfig {
            max_l2: 10.0,
            lowe_ratio: 1.0,
            ..MatchConfig::default()
        };
        for m in match_vector(&va, &vb, &cfg) {
            assert!(m.query_idx < va.len());
            assert!(m.train_idx < vb.len());
        }
    });
}

#[test]
fn l2_distance_is_a_metric() {
    check(CASES, |rng| {
        let da = VectorDescriptor::from_values(arb_values(rng, 6, -10.0..10.0));
        let db = VectorDescriptor::from_values(arb_values(rng, 6, -10.0..10.0));
        let dc = VectorDescriptor::from_values(arb_values(rng, 6, -10.0..10.0));
        assert!(da.l2(&da) < 1e-6);
        assert!((da.l2(&db) - db.l2(&da)).abs() < 1e-5);
        assert!(da.l2(&dc) <= da.l2(&db) + db.l2(&dc) + 1e-4);
    });
}
