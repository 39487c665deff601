//! Scratch-reuse and SoA-rescoring parity for the index backends.
//!
//! Seeded property tests pinning:
//!
//! * `query_with_scratch` == `query` on every backend — a reused, warmed
//!   scratch never changes a result;
//! * MIH (SoA-batched rescoring) == linear scan (the exact reference) on
//!   noisy duplicates, across thread counts 1/2/8 and shard counts 1/2/4;
//! * `candidates_into` == `candidates_budgeted` for every budget.
//!
//! `set_threads` is global and races across test threads by design: every
//! assertion is a thread-count-invariance claim.

use bees_features::descriptor::{BinaryDescriptor, Descriptors};
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex, Query, QueryScratch, ShardedIndex};
use bees_rng::ChaCha8Rng;

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

/// Flips `k` bits of each descriptor.
fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
    let Descriptors::Binary(descs) = &f.descriptors else {
        return f.clone();
    };
    let out: Vec<BinaryDescriptor> = descs
        .iter()
        .map(|d| {
            let mut bytes = *d.as_bytes();
            for _ in 0..k {
                let bit = rng.gen_range(0..256usize);
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

fn corpus(seed: u64, n_images: usize, n_descs: usize) -> Vec<(ImageId, ImageFeatures)> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n_images)
        .map(|i| (ImageId(i as u64), random_features(&mut rng, n_descs)))
        .collect()
}

#[test]
fn scratch_reuse_never_changes_results() {
    let items = corpus(31, 24, 12);
    let cfg = SimilarityConfig::default();
    let mut rng = ChaCha8Rng::seed_from_u64(32);

    let mut linear = LinearIndex::new(cfg);
    linear.insert_batch(items.clone());
    let mut mih = MihIndex::new(cfg);
    mih.insert_batch(items.clone());
    let mut sharded = ShardedIndex::with_shards(3, || MihIndex::new(cfg));
    sharded.insert_batch(items.clone());

    let backends: Vec<(&str, &dyn FeatureIndex)> =
        vec![("linear", &linear), ("mih", &mih), ("sharded3", &sharded)];
    // One scratch per backend, reused across all queries (warm reuse is
    // exactly the server's pattern).
    let mut scratches = [
        QueryScratch::new(),
        QueryScratch::new(),
        QueryScratch::new(),
    ];
    for round in 0..3 {
        for (i, f) in items.iter().map(|(_, f)| f).enumerate() {
            let noisy = perturb(f, &mut rng, 2);
            for ((name, idx), scratch) in backends.iter().zip(scratches.iter_mut()) {
                let q = Query::top_k(&noisy, 5);
                assert_eq!(
                    idx.query_with_scratch(&q, scratch),
                    idx.query(&q),
                    "{name}: round {round} probe {i}"
                );
            }
        }
    }
}

#[test]
fn mih_soa_rescoring_matches_linear_across_threads_and_shards() {
    let items = corpus(41, 20, 10);
    let cfg = SimilarityConfig::default();
    let mut linear = LinearIndex::new(cfg);
    linear.insert_batch(items.clone());

    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let probes: Vec<ImageFeatures> = items.iter().map(|(_, f)| perturb(f, &mut rng, 2)).collect();
    let reference: Vec<_> = probes
        .iter()
        .map(|p| linear.query(&Query::top_k(p, 4)))
        .collect();

    for shards in [1usize, 2, 4] {
        let mut idx = ShardedIndex::with_shards(shards, || MihIndex::new(cfg));
        idx.insert_batch(items.clone());
        let mut scratch = QueryScratch::new();
        for threads in [1usize, 2, 8] {
            bees_runtime::set_threads(threads);
            for (p, r) in probes.iter().zip(&reference) {
                assert_eq!(
                    idx.query_with_scratch(&Query::top_k(p, 4), &mut scratch),
                    *r,
                    "shards {shards} threads {threads}"
                );
            }
        }
        bees_runtime::set_threads(0);
    }
}

#[test]
fn candidates_into_matches_candidates_budgeted() {
    let items = corpus(51, 30, 8);
    let cfg = SimilarityConfig::default();
    let mut mih = MihIndex::new(cfg);
    mih.insert_batch(items.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(52);
    let mut scratch = QueryScratch::new();
    for (_, f) in &items {
        let noisy = perturb(f, &mut rng, 1);
        for budget in [0usize, 1, 3, 100] {
            mih.candidates_into(&noisy, budget, &mut scratch);
            assert_eq!(
                scratch.candidates(),
                mih.candidates_budgeted(&noisy, budget).as_slice(),
                "budget {budget}"
            );
        }
    }
    // A candidate-less query must clear any stale ids in the scratch.
    let empty = ImageFeatures::empty_binary();
    mih.candidates_into(&empty, 0, &mut scratch);
    assert!(scratch.candidates().is_empty());
}
