//! Property tests of the index backends: the MIH accelerator must
//! agree with the exact linear scan whenever descriptor noise stays within
//! its word-collision guarantee, and both must behave like indexes.

use bees_features::descriptor::BinaryDescriptor;
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex};
use bees_rng::{check, ChaCha8Rng};

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

/// Flips up to `k` bits per descriptor (k <= 3 keeps the MIH pigeonhole
/// guarantee: some 64-bit word stays identical).
fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
    let Descriptors::Binary(descs) = &f.descriptors else {
        unreachable!()
    };
    let out: Vec<BinaryDescriptor> = descs
        .iter()
        .map(|d| {
            let mut bytes = *d.as_bytes();
            for _ in 0..k {
                let bit = rng.gen_range(0..256);
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

const CASES: u64 = 24;

#[test]
fn mih_matches_linear_within_guarantee() {
    check(CASES, |rng| {
        let n_images = rng.gen_range(1usize..10);
        let flips = rng.gen_range(0usize..=3);
        let cfg = SimilarityConfig::default();
        let mut lin = LinearIndex::new(cfg);
        let mut mih = MihIndex::new(cfg);
        let mut originals = Vec::new();
        for i in 0..n_images {
            let f = random_features(rng, 12);
            lin.insert(ImageId(i as u64), f.clone());
            mih.insert(ImageId(i as u64), f.clone());
            originals.push(f);
        }
        for f in &originals {
            let query = perturb(f, rng, flips);
            let lh = lin.max_similarity(&query);
            let mh = mih.max_similarity(&query);
            match (lh, mh) {
                (Some(l), Some(m)) => {
                    assert_eq!(l.id, m.id);
                    assert!((l.similarity - m.similarity).abs() < 1e-12);
                }
                (None, None) => {}
                other => panic!("backends disagree: {other:?}"),
            }
        }
    });
}

#[test]
fn top_k_is_sorted_and_bounded() {
    check(CASES, |rng| {
        let n_images = rng.gen_range(0usize..8);
        let k = rng.gen_range(0usize..10);
        let mut idx = LinearIndex::new(SimilarityConfig::default());
        for i in 0..n_images {
            let f = random_features(rng, 8);
            idx.insert(ImageId(i as u64), f);
        }
        let query = random_features(rng, 8);
        let hits = idx.top_k(&query, k);
        assert!(hits.len() <= k.min(n_images));
        for w in hits.windows(2) {
            assert!(w[0].similarity >= w[1].similarity);
        }
        for h in &hits {
            assert!(h.similarity > 0.0 && h.similarity <= 1.0);
        }
    });
}

#[test]
fn inserts_accumulate_and_replace() {
    check(CASES, |rng| {
        let ids: Vec<u64> = (0..rng.gen_range(1..15))
            .map(|_| rng.gen_range(0u64..6))
            .collect();
        let mut idx = MihIndex::new(SimilarityConfig::default());
        for &id in &ids {
            idx.insert(ImageId(id), random_features(rng, 4));
        }
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(idx.len(), unique.len());
    });
}
