//! Golden pins for ORB's keypoints, descriptor bytes and the Jaccard
//! scores built on them.
//!
//! Each case extracts ORB features from a seeded synthetic view and pins
//! the keypoint count plus FNV-1a digests over every keypoint's fields and
//! every descriptor's 32 bytes, in extraction order. A change to FAST, the
//! pyramid's resize, Harris ranking, the orientation, the BRIEF sampling
//! or the descriptor storage moves a digest here even when every
//! downstream score happens to survive.
//! Pairwise `jaccard_similarity` scores are pinned bit for bit through
//! `f64::to_bits`. Run at several `BEES_THREADS` values: nothing here may
//! depend on the worker count.

use bees_datasets::{disaster_batch, Scene, SceneConfig, ViewJitter};
use bees_features::orb::Orb;
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::{Descriptors, FeatureExtractor, ImageFeatures};
use bees_image::GrayImage;

/// FNV-1a over every descriptor's 32 bytes, in extraction order.
fn descriptor_digest(f: &ImageFeatures) -> u64 {
    let Descriptors::Binary(descs) = &f.descriptors else {
        panic!("ORB produces binary descriptors");
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in descs.iter() {
        for &b in d.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over every keypoint's `x`, `y`, `response` and `angle` bits
/// (little-endian) and its `octave`, in extraction order.
fn keypoint_digest(f: &ImageFeatures) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for k in &f.keypoints {
        let fields = [k.x, k.y, k.response, k.angle].map(f32::to_bits);
        let bytes = fields.iter().flat_map(|b| b.to_le_bytes());
        for b in bytes.chain([k.octave]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Two distinct scenes at the paper's 384x288 plus a jittered re-shot of
/// the second one.
fn disaster_views() -> Vec<GrayImage> {
    disaster_batch(0x0E5, 3, 1, 0.0, SceneConfig::default())
        .batch
        .iter()
        .map(|img| img.to_gray())
        .collect()
}

fn small_view() -> GrayImage {
    let config = SceneConfig {
        width: 96,
        height: 72,
        n_shapes: 10,
        texture_amp: 8.0,
    };
    Scene::new(0x5A11, config)
        .render(&ViewJitter::identity())
        .to_gray()
}

#[test]
fn orb_descriptor_bytes_are_pinned() {
    let orb = Orb::default();
    let disaster = orb.extract(&disaster_views()[0]);
    assert_eq!(disaster.len(), 150);
    assert_eq!(descriptor_digest(&disaster), 0x3ffb_476d_3ed8_51f3);
    let small = orb.extract(&small_view());
    assert_eq!(small.len(), 150);
    assert_eq!(descriptor_digest(&small), 0xfe47_f4c3_a685_7b48);
}

#[test]
fn orb_keypoints_are_pinned() {
    let orb = Orb::default();
    let disaster = orb.extract(&disaster_views()[0]);
    let small = orb.extract(&small_view());
    let got = [keypoint_digest(&disaster), keypoint_digest(&small)];
    assert_eq!(
        got,
        [0xcfc8_daa6_e7a1_6ce9, 0xc314_e1d9_9492_79c8],
        "{got:#018x?}"
    );
}

#[test]
fn jaccard_scores_are_pinned() {
    let orb = Orb::default();
    let feats: Vec<ImageFeatures> = disaster_views().iter().map(|v| orb.extract(v)).collect();
    let cfg = SimilarityConfig::default();
    for ((a, b), bits) in [
        ((1, 2), 0x3fc3_205e_2932_05e3u64),
        ((2, 1), 0x3fc3_205e_2932_05e3),
        ((0, 1), 0x3f9c_0e07_0381_c0e0),
        ((0, 2), 0x3f94_e5e0_a72f_0539),
        ((1, 1), 1.0f64.to_bits()),
    ] {
        let s = jaccard_similarity(&feats[a], &feats[b], &cfg);
        assert_eq!(s.to_bits(), bits, "pair ({a}, {b}) scored {s}");
    }
}
