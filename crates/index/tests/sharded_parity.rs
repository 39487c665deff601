//! Sharded-index parity under interleaved multi-device ingest.
//!
//! Simulates several "devices" inserting in an interleaved order and checks
//! that (a) MIH agrees with the exact linear scan whenever descriptor noise
//! stays within its word-collision guarantee, and (b) the answers are
//! independent of the shard count — the property the fleet-scale server
//! relies on.

use bees_features::descriptor::BinaryDescriptor;
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex, Query, ShardedIndex};
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

/// Flips up to `k` bits per descriptor (`k <= 3` keeps the MIH pigeonhole
/// guarantee: some 64-bit word stays identical).
fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
    let Descriptors::Binary(descs) = &f.descriptors else {
        panic!("binary features expected");
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

/// An interleaved multi-device upload stream: device `d` contributes ids
/// `d, d + n_devices, d + 2*n_devices, ...` and the stream round-robins
/// between devices in bursts, like the fleet's event queue does.
fn interleaved_stream(
    rng: &mut ChaCha8Rng,
    n_devices: usize,
    per_device: usize,
) -> Vec<(ImageId, ImageFeatures)> {
    let mut per_dev: Vec<Vec<(ImageId, ImageFeatures)>> = (0..n_devices)
        .map(|d| {
            (0..per_device)
                .map(|i| (ImageId((i * n_devices + d) as u64), random_features(rng, 8)))
                .collect()
        })
        .collect();
    let mut out = Vec::with_capacity(n_devices * per_device);
    let mut turn = 0usize;
    while per_dev.iter().any(|v| !v.is_empty()) {
        let d = turn % n_devices;
        let burst = 1 + (turn % 3); // uneven bursts, still deterministic
        for _ in 0..burst {
            if let Some(item) = per_dev[d].pop() {
                out.push(item);
            }
        }
        turn += 1;
    }
    out
}

#[test]
fn mih_matches_linear_at_every_shard_count() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xF1EE7);
    let cfg = SimilarityConfig::default();
    let stream = interleaved_stream(&mut rng, 3, 10);

    let mut linear = LinearIndex::new(cfg);
    linear.insert_batch(stream.clone());

    // Queries: noisy views of stored images (within MIH's guarantee) plus
    // some unrelated probes.
    let mut queries: Vec<ImageFeatures> = stream
        .iter()
        .step_by(4)
        .map(|(_, f)| perturb(f, &mut rng, 3))
        .collect();
    queries.extend((0..5).map(|_| random_features(&mut rng, 8)));

    for shards in [1usize, 2, 4] {
        let mut idx = ShardedIndex::with_shards(shards, || MihIndex::new(cfg));
        idx.insert_batch(stream.clone());
        assert_eq!(idx.len(), linear.len());
        for (qi, q) in queries.iter().enumerate() {
            let got = idx.query(&Query::top_k(q, 5));
            let want = linear.query(&Query::top_k(q, 5));
            assert_eq!(got, want, "shards={shards} query={qi}");
        }
    }
}

#[test]
fn shard_count_never_changes_unbudgeted_answers() {
    // Same stream, shard counts 1/2/4 against each other (no linear
    // reference): the merged per-shard rankings must be literally equal.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let cfg = SimilarityConfig::default();
    let stream = interleaved_stream(&mut rng, 4, 8);
    let queries: Vec<ImageFeatures> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                perturb(&stream[i].1, &mut rng, 2)
            } else {
                random_features(&mut rng, 8)
            }
        })
        .collect();

    let answers: Vec<Vec<_>> = [1usize, 2, 4]
        .iter()
        .map(|&shards| {
            let mut idx = ShardedIndex::with_shards(shards, || MihIndex::new(cfg));
            idx.insert_batch(stream.clone());
            queries
                .iter()
                .map(|q| idx.query(&Query::top_k(q, 3)))
                .collect()
        })
        .collect();
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0], answers[2]);
}

#[test]
fn insertion_order_does_not_matter() {
    // The same id set inserted in two different interleavings must produce
    // identical indexes (queries agree), because shard assignment is a pure
    // function of the id.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let cfg = SimilarityConfig::default();
    let stream = interleaved_stream(&mut rng, 3, 8);
    let mut reversed = stream.clone();
    reversed.reverse();

    let mut a = ShardedIndex::with_shards(4, || MihIndex::new(cfg));
    a.insert_batch(stream.clone());
    let mut b = ShardedIndex::with_shards(4, || MihIndex::new(cfg));
    b.insert_batch(reversed);

    for (_, f) in stream.iter().take(10) {
        let q = perturb(f, &mut rng, 2);
        assert_eq!(a.query(&Query::top_k(&q, 4)), b.query(&Query::top_k(&q, 4)));
    }
}
