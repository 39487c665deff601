//! Contract tests every `FeatureExtractor` implementation must satisfy —
//! the invariants the rest of the system (indexes, schemes, energy model)
//! silently relies on.

use bees_features::orb::Orb;
use bees_features::pca::PcaSift;
use bees_features::sift::{self, Sift};
use bees_features::{Descriptors, FeatureExtractor};
use bees_image::GrayImage;

fn extractors() -> Vec<Box<dyn FeatureExtractor>> {
    vec![
        Box::new(Orb::default()),
        Box::new(Sift),
        Box::new(PcaSift::with_seeded_basis(7)),
    ]
}

fn textured(w: u32, h: u32) -> GrayImage {
    GrayImage::from_fn(w, h, |x, y| {
        let v = 128.0
            + 55.0 * ((x as f32) * 0.23).sin()
            + 45.0 * ((y as f32) * 0.19).cos()
            + if ((x / 14) + (y / 14)) % 2 == 0 {
                30.0
            } else {
                -30.0
            };
        v.clamp(0.0, 255.0) as u8
    })
}

#[test]
fn extraction_is_deterministic_for_every_extractor() {
    let img = textured(128, 96);
    for e in extractors() {
        let a = e.extract(&img);
        let b = e.extract(&img);
        assert_eq!(a, b, "{:?} must be deterministic", e.kind());
    }
}

#[test]
fn keypoints_and_descriptors_stay_aligned() {
    let img = textured(128, 96);
    for e in extractors() {
        let f = e.extract(&img);
        assert_eq!(
            f.keypoints.len(),
            f.descriptors.len(),
            "{:?}: keypoint/descriptor mismatch",
            e.kind()
        );
        for kp in &f.keypoints {
            assert!(kp.x.is_finite() && kp.y.is_finite(), "{:?}", e.kind());
            assert!(
                kp.x >= 0.0 && kp.x <= img.width() as f32 + 1.0,
                "{:?}",
                e.kind()
            );
            assert!(
                kp.y >= 0.0 && kp.y <= img.height() as f32 + 1.0,
                "{:?}",
                e.kind()
            );
            assert!(kp.scale >= 1.0, "{:?}", e.kind());
            assert!(kp.angle.is_finite(), "{:?}", e.kind());
        }
    }
}

#[test]
fn stats_account_for_the_work_done() {
    let img = textured(128, 96);
    for e in extractors() {
        let (f, stats) = e.extract_with_stats(&img);
        assert!(
            stats.pixels_processed >= img.pixel_count(),
            "{:?}: processed fewer pixels than the image holds",
            e.kind()
        );
        assert_eq!(stats.keypoints_described, f.len(), "{:?}", e.kind());
        assert_eq!(
            stats.descriptor_bytes,
            f.descriptors.byte_size(),
            "{:?}",
            e.kind()
        );
    }
}

#[test]
fn descriptor_kinds_match_algorithm_family() {
    let img = textured(128, 96);
    for e in extractors() {
        let f = e.extract(&img);
        match e.kind() {
            bees_features::ExtractorKind::Orb => {
                assert!(matches!(f.descriptors, Descriptors::Binary(_)));
            }
            _ => assert!(matches!(f.descriptors, Descriptors::Vector(_))),
        }
    }
}

#[test]
fn flat_images_produce_no_features_anywhere() {
    let img = GrayImage::from_fn(96, 96, |_, _| 140);
    for e in extractors() {
        let f = e.extract(&img);
        assert!(
            f.is_empty(),
            "{:?} hallucinated {} features on a flat image",
            e.kind(),
            f.len()
        );
    }
}

#[test]
fn tiny_images_never_panic() {
    for (w, h) in [(1, 1), (8, 8), (16, 16), (33, 1)] {
        let img = GrayImage::from_fn(w, h, |x, y| ((x * 41 + y * 23) % 256) as u8);
        for e in extractors() {
            let (f, stats) = e.extract_with_stats(&img);
            // Too small for any patch: must degrade to empty, not crash.
            assert!(f.len() < 10, "{:?} on {w}x{h}", e.kind());
            assert!(stats.pixels_processed > 0);
        }
    }
}

#[test]
fn feature_budget_is_respected_under_pressure() {
    // A very busy image cannot exceed the configured budget.
    let img = GrayImage::from_fn(
        200,
        150,
        |x, y| {
            if (x / 3 + y / 3) % 2 == 0 {
                250
            } else {
                10
            }
        },
    );
    let orb = Orb::default();
    let f = orb.extract(&img);
    assert!(f.len() <= orb.config().n_features);
    let fs = Sift.extract(&img);
    assert!(fs.len() <= sift::N_FEATURES);
}
