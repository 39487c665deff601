//! Property tests of the index backends: the MIH accelerator must
//! agree with the exact linear scan whenever descriptor noise stays within
//! its word-collision guarantee, its candidate sets must equal a
//! brute-force word scan, and both must behave like indexes.

use bees_features::descriptor::{BinaryDescriptor, VectorDescriptor};
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex};
use bees_rng::{check, ChaCha8Rng};
use std::collections::BTreeMap;

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
    // Every id is indexed once (the server hands out fresh ids), so
    // nothing is replaced: each insert adds one image.
    check(CASES, |rng| {
        let mut ids: Vec<u64> = (0..rng.gen_range(1u64..15)).collect();
        rng.shuffle(&mut ids);
        let mut idx = MihIndex::new(SimilarityConfig::default());
        for (n, &id) in ids.iter().enumerate() {
            idx.insert(ImageId(id), random_features(rng, 4));
            assert_eq!(idx.len(), n + 1);
        }
    });
}

fn features_of(descs: &[BinaryDescriptor]) -> ImageFeatures {
    ImageFeatures {
        keypoints: vec![Keypoint::default(); descs.len()],
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(descs)),
    }
}

/// `n` descriptors drawn around a small pool: each word of each
/// descriptor is a pool word with 0, 1 or 2 bits flipped, so words fall
/// inside and just outside a radius-1 probe; every fourth descriptor is
/// fresh noise.
fn pooled_features(rng: &mut ChaCha8Rng, pool: &[BinaryDescriptor], n: usize) -> ImageFeatures {
    let descs: Vec<BinaryDescriptor> = (0..n)
        .map(|i| {
            if i % 4 == 3 {
                let mut bytes = [0u8; 32];
                rng.fill(&mut bytes);
                return BinaryDescriptor::from_bytes(bytes);
            }
            let mut bytes = *pool[rng.gen_range(0..pool.len())].as_bytes();
            for word in 0..4 {
                for _ in 0..rng.gen_range(0usize..3) {
                    let bit = 64 * word + rng.gen_range(0usize..64);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    features_of(&descs)
}

/// The MIH candidate set by its definition: every stored id with a word
/// within `radius` of the query's word at the same position, ascending.
fn brute_force_candidates(
    stored: &BTreeMap<u64, ImageFeatures>,
    query: &ImageFeatures,
    radius: u32,
) -> Vec<ImageId> {
    let words = |f: &ImageFeatures| match &f.descriptors {
        Descriptors::Binary(block) => block.words().to_vec(),
        Descriptors::Vector(_) => Vec::new(),
    };
    let query_words = words(query);
    stored
        .iter()
        .filter(|(_, f)| {
            let stored_words = words(f);
            query_words.iter().enumerate().any(|(k, &q)| {
                stored_words
                    .iter()
                    .skip(k % 4)
                    .step_by(4)
                    .any(|&w| (w ^ q).count_ones() <= radius)
            })
        })
        .map(|(&id, _)| ImageId(id))
        .collect()
}

#[test]
fn mih_candidates_equal_a_brute_force_word_scan() {
    check(CASES, |rng| {
        let pool: Vec<BinaryDescriptor> = (0..4)
            .map(|_| {
                let mut bytes = [0u8; 32];
                rng.fill(&mut bytes);
                BinaryDescriptor::from_bytes(bytes)
            })
            .collect();
        let cfg = SimilarityConfig::default();
        let mut indexes = [
            MihIndex::new(cfg).with_probe_radius(0),
            MihIndex::new(cfg).with_probe_radius(1),
        ];
        let mut stored = BTreeMap::new();
        let insert =
            |indexes: &mut [MihIndex], stored: &mut BTreeMap<_, _>, id, f: ImageFeatures| {
                for index in indexes {
                    index.insert(ImageId(id), f.clone());
                }
                stored.insert(id, f);
            };
        let mut probes = vec![
            pooled_features(rng, &pool, 8),
            features_of(&pool[..1]),
            ImageFeatures::empty_binary(),
        ];
        // Distinct ids arrive out of order.
        let mut ids: Vec<u64> = (0..rng.gen_range(1u64..24)).collect();
        rng.shuffle(&mut ids);
        for id in ids {
            let n = rng.gen_range(0usize..12);
            let f = pooled_features(rng, &pool, n);
            probes.push(f.clone());
            insert(&mut indexes, &mut stored, id, f);
        }
        // One image repeats a single descriptor many times.
        insert(&mut indexes, &mut stored, 99, features_of(&[pool[0]; 30]));
        for probe in &probes {
            for (radius, index) in indexes.iter().enumerate() {
                assert_eq!(
                    index.candidates(probe),
                    brute_force_candidates(&stored, probe, radius as u32),
                    "radius {radius}"
                );
            }
        }
        // Vector features have no words: stored or probed, no candidates.
        let vector = ImageFeatures {
            keypoints: vec![Keypoint::default()],
            descriptors: Descriptors::Vector(vec![VectorDescriptor::from_values(vec![1.0, 0.0])]),
        };
        insert(&mut indexes, &mut stored, 100, vector.clone());
        for (radius, index) in indexes.iter().enumerate() {
            assert!(index.candidates(&vector).is_empty());
            assert_eq!(
                index.candidates(&probes[0]),
                brute_force_candidates(&stored, &probes[0], radius as u32)
            );
        }
    });
}
