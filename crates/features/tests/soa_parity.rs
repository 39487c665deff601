//! Seeded parity suite: the block (SoA) descriptor paths must be
//! byte-identical to the unpruned reference over `BinaryDescriptor` slices
//! (AoS).
//!
//! Property-style tests over seeded random inputs (plain `ChaCha8Rng`
//! loops) pinning:
//!
//! * `match_binary` (blocks + pruning) == `match_binary_exhaustive` (the
//!   unpruned AoS reference) for every config shape, at thread counts
//!   1/2/8, on random inputs and on hand-built shapes that stress the
//!   targeted cross-check pass;
//! * `jaccard_similarity` == Eq. 2 over the reference match count, to the
//!   last f64 bit;
//! * `DescriptorBlock` round-trips descriptors exactly.
//!
//! Thread counts are set via `bees_runtime::set_threads`. The global
//! setting races across test threads by design: every assertion here is a
//! thread-count-invariance claim, so whichever count is live, results must
//! not move.

use bees_features::matcher::{match_binary, match_binary_exhaustive, MatchConfig};
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::{BinaryDescriptor, DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
use bees_rng::ChaCha8Rng;

fn random_descs(rng: &mut ChaCha8Rng, n: usize) -> Vec<BinaryDescriptor> {
    (0..n)
        .map(|_| {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect()
}

/// A set correlated with `base`: some exact copies, some noisy
/// re-observations, some fresh randoms — so matches actually fall inside
/// realistic `max_hamming` thresholds instead of hovering near 128.
fn correlated_descs(
    rng: &mut ChaCha8Rng,
    base: &[BinaryDescriptor],
    n: usize,
) -> Vec<BinaryDescriptor> {
    (0..n)
        .map(|i| {
            if base.is_empty() || i % 3 == 2 {
                random_descs(rng, 1).remove(0)
            } else {
                let mut bytes = *base[rng.gen_range(0..base.len())].as_bytes();
                let flips = if i % 3 == 0 { 0 } else { rng.gen_range(1..12) };
                for _ in 0..flips {
                    let bit = rng.gen_range(0..256usize);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
                BinaryDescriptor::from_bytes(bytes)
            }
        })
        .collect()
}

fn features_from(descs: &[BinaryDescriptor]) -> ImageFeatures {
    ImageFeatures {
        keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(descs)),
    }
}

/// Eq. 2 over the reference matcher's intersection count.
fn reference_jaccard(
    a: &[BinaryDescriptor],
    b: &[BinaryDescriptor],
    cfg: &SimilarityConfig,
) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let intersection = match_binary_exhaustive(a, b, &cfg.matching).len();
    intersection as f64 / (a.len() + b.len() - intersection) as f64
}

fn configs() -> Vec<MatchConfig> {
    let base = MatchConfig::default();
    vec![
        base,
        MatchConfig {
            cross_check: false,
            ..base
        },
        MatchConfig {
            max_hamming: 0,
            ..base
        },
        MatchConfig {
            max_hamming: 30,
            ..base
        },
        MatchConfig {
            max_hamming: 256,
            ..base
        },
    ]
}

/// `d` with exactly `k` distinct bits flipped (stride 37 is odd, so the
/// first 256 positions it visits are all distinct).
fn flip_bits(d: &BinaryDescriptor, k: usize, start: usize) -> BinaryDescriptor {
    let mut bytes = *d.as_bytes();
    for i in 0..k {
        let bit = (start + 37 * i) % 256;
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    BinaryDescriptor::from_bytes(bytes)
}

/// Hand-built `(query, train)` pairs for the targeted backward pass, which
/// caps each train row at the smallest forward distance into it. Each pair
/// also runs transposed. The shapes:
///
/// * several query rows sharing one train target at distances 9, 5, 14
///   and 5 (a tie at the smallest, broken toward the lower row);
/// * exact-distance ties from a duplicated query descriptor;
/// * forward distances of exactly 0, 30, 64 and 256 — the `max_hamming`
///   of each config in [`configs`];
/// * a query row that is closer to a train row than any forward partner
///   of it, because its own forward nearest is another train row.
fn structured_cases(rng: &mut ChaCha8Rng) -> Vec<(Vec<BinaryDescriptor>, Vec<BinaryDescriptor>)> {
    let train = random_descs(rng, 12);
    let dup = flip_bits(&train[1], 6, 4);
    let mut query = vec![
        flip_bits(&train[0], 9, 0),
        flip_bits(&train[0], 5, 1),
        flip_bits(&train[0], 14, 2),
        flip_bits(&train[0], 5, 3),
        dup,
        random_descs(rng, 1)[0],
        dup,
    ];
    for (row, k) in [(2, 0), (3, 30), (4, 64)] {
        query.push(flip_bits(&train[row], k, 5));
    }
    query.extend(random_descs(rng, 3));
    let x = train[5];
    let complement = BinaryDescriptor::from_bytes(x.as_bytes().map(|b| !b));
    let near_x = flip_bits(&x, 2, 200);
    let cases = vec![
        (query, train),
        (vec![complement], vec![x]),
        (vec![x, x], vec![complement, x]),
        (
            vec![flip_bits(&x, 5, 0), flip_bits(&x, 9, 1), near_x],
            vec![x, near_x],
        ),
    ];
    let transposed: Vec<_> = cases.iter().map(|(q, t)| (t.clone(), q.clone())).collect();
    cases.into_iter().chain(transposed).collect()
}

#[test]
fn matcher_soa_and_pruning_match_the_aos_reference() {
    let mut cases = structured_cases(&mut ChaCha8Rng::seed_from_u64(0xBEE5_50A3));
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEE5_50A0);
    for _ in 0..20 {
        let nq = rng.gen_range(0..40);
        let nt = rng.gen_range(0..40);
        let query = random_descs(&mut rng, nq);
        let train = correlated_descs(&mut rng, &query, nt);
        cases.push((query, train));
    }
    for (case, (query, train)) in cases.iter().enumerate() {
        let qblock = DescriptorBlock::from_descriptors(query);
        let tblock = DescriptorBlock::from_descriptors(train);
        for (ci, config) in configs().iter().enumerate() {
            let reference = match_binary_exhaustive(query, train, config);
            for threads in [1usize, 2, 8] {
                bees_runtime::set_threads(threads);
                assert_eq!(
                    match_binary(&qblock, &tblock, config),
                    reference,
                    "case {case} config {ci} threads {threads}"
                );
            }
            bees_runtime::set_threads(0);
        }
    }
}

#[test]
fn jaccard_blocks_bitwise_equals_the_aos_path() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEE5_50A1);
    let cfg = SimilarityConfig::default();
    for case in 0..20 {
        let na = rng.gen_range(0..30);
        let a = random_descs(&mut rng, na);
        let nb = rng.gen_range(0..30);
        let b = correlated_descs(&mut rng, &a, nb);
        let reference = reference_jaccard(&a, &b, &cfg);
        let soa = jaccard_similarity(&features_from(&a), &features_from(&b), &cfg);
        assert_eq!(
            reference.to_bits(),
            soa.to_bits(),
            "case {case}: {reference} vs {soa}"
        );
    }
}

#[test]
fn empty_sets_agree_on_every_path() {
    let cfg = MatchConfig::default();
    let some = random_descs(&mut ChaCha8Rng::seed_from_u64(3), 5);
    let empty: Vec<BinaryDescriptor> = Vec::new();
    for (q, t) in [(&empty, &some), (&some, &empty), (&empty, &empty)] {
        let (qb, tb) = (
            DescriptorBlock::from_descriptors(q),
            DescriptorBlock::from_descriptors(t),
        );
        assert_eq!(
            match_binary(&qb, &tb, &cfg),
            match_binary_exhaustive(q, t, &cfg)
        );
        assert!(match_binary(&qb, &tb, &cfg).is_empty());
    }
    let scfg = SimilarityConfig::default();
    let (ef, sf) = (ImageFeatures::empty_binary(), features_from(&some));
    assert_eq!(jaccard_similarity(&ef, &sf, &scfg), 0.0);
    assert_eq!(jaccard_similarity(&sf, &ef, &scfg), 0.0);
    assert_eq!(reference_jaccard(&empty, &some, &scfg), 0.0);
}

#[test]
fn blocks_round_trip_descriptors_exactly() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEE5_50A2);
    let descs = random_descs(&mut rng, 33);
    let block = DescriptorBlock::from_descriptors(&descs);
    assert_eq!(block.len(), descs.len());
    for (i, d) in descs.iter().enumerate() {
        assert_eq!(&block.descriptor(i), d, "descriptor {i}");
    }
    assert_eq!(block.iter().collect::<Vec<_>>(), descs);
}
