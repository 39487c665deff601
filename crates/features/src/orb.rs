//! ORB: Oriented FAST and Rotated BRIEF (Rublee et al., ICCV 2011).
//!
//! The extractor BEES runs on the smartphone. Pipeline per pyramid level:
//!
//! 1. FAST-9 corners ([`fast`]),
//! 2. Harris re-ranking, keeping the strongest corners overall
//!    ([`harris`](crate::harris)),
//! 3. intensity-centroid orientation ([`orientation`](crate::orientation)),
//! 4. steered BRIEF over a Gaussian-smoothed level ([`brief`](crate::brief)),
//!    each descriptor pushed into the image's [`DescriptorBlock`].
//!
//! Keypoint budget is distributed across levels proportionally to level
//! area, as in the reference implementation.

use crate::block::DescriptorBlock;
use crate::brief::{BriefPattern, DEFAULT_PATTERN_SEED, PATCH_RADIUS};
use crate::descriptor::{Descriptors, ImageFeatures};
use crate::extractor::{ExtractionStats, ExtractorKind, FeatureExtractor};
use crate::fast;
use crate::harris::harris_response;
use crate::keypoint::Keypoint;
use crate::orientation::intensity_centroid_angle;
use crate::pyramid::Pyramid;
use bees_image::{blur, GrayImage};

/// Configuration for the [`Orb`] extractor.
///
/// The defaults mirror OpenCV's shape (scale factor 1.2, 8 levels, FAST
/// threshold 20) with a 150-feature budget — OpenCV's 500 is sized for
/// multi-megapixel photos; 150 keeps the feature payload proportionate to
/// this reproduction's image sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbConfig {
    /// Maximum number of features to keep per image.
    pub n_features: usize,
    /// Pyramid scale factor (> 1).
    pub scale_factor: f32,
    /// Maximum pyramid levels.
    pub n_levels: u8,
    /// FAST segment-test brightness threshold.
    pub fast_threshold: u8,
    /// Gaussian sigma applied to each level before BRIEF sampling.
    pub brief_blur_sigma: f64,
    /// Seed of the BRIEF sampling pattern (must agree between any two
    /// parties whose descriptors are compared).
    pub pattern_seed: u64,
}

impl Default for OrbConfig {
    fn default() -> Self {
        OrbConfig {
            n_features: 150,
            scale_factor: 1.2,
            n_levels: 8,
            fast_threshold: 20,
            brief_blur_sigma: 2.0,
            pattern_seed: DEFAULT_PATTERN_SEED,
        }
    }
}

/// The ORB feature extractor.
///
/// # Examples
///
/// ```
/// use bees_features::orb::{Orb, OrbConfig};
/// use bees_features::FeatureExtractor;
/// use bees_image::GrayImage;
///
/// let img = GrayImage::from_fn(96, 96, |x, y| {
///     if (x / 12 + y / 12) % 2 == 0 { 210 } else { 40 }
/// });
/// let orb = Orb::new(OrbConfig { n_features: 100, ..OrbConfig::default() });
/// let (features, stats) = orb.extract_with_stats(&img);
/// assert!(features.len() <= 100);
/// assert!(stats.pixels_processed >= 96 * 96);
/// ```
#[derive(Debug, Clone)]
pub struct Orb {
    config: OrbConfig,
    pattern: BriefPattern,
}

impl Orb {
    /// Creates an extractor with the given configuration.
    pub fn new(config: OrbConfig) -> Self {
        Orb {
            pattern: BriefPattern::new(config.pattern_seed),
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &OrbConfig {
        &self.config
    }

    /// Minimum image side for which extraction can produce features.
    pub const MIN_SIDE: u32 = 2 * PATCH_RADIUS as u32 + 3;
}

impl Default for Orb {
    fn default() -> Self {
        Orb::new(OrbConfig::default())
    }
}

/// A corner candidate awaiting descriptor computation.
struct Candidate {
    level: usize,
    // Position in level coordinates.
    lx: u32,
    ly: u32,
    harris: f32,
}

impl FeatureExtractor for Orb {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Orb
    }

    fn extract_with_stats(&self, img: &GrayImage) -> (ImageFeatures, ExtractionStats) {
        let mut stats = ExtractionStats::default();
        if img.width() < Self::MIN_SIDE || img.height() < Self::MIN_SIDE {
            stats.pixels_processed = img.pixel_count();
            return (ImageFeatures::empty_binary(), stats);
        }
        let pyramid = Pyramid::build(
            img,
            self.config.scale_factor,
            self.config.n_levels,
            Self::MIN_SIDE,
        );
        stats.pixels_processed = pyramid.total_pixels();

        // Distribute the feature budget across levels proportionally to
        // level area. Each call is one image: a batch fans out whole images,
        // so levels, blurs and descriptors run in order on the image's task.
        let total_pixels = pyramid.total_pixels() as f64;
        let mut candidates: Vec<Candidate> = Vec::new();
        for level in 0..pyramid.len() {
            let level_img = pyramid.level(level);
            let share = level_img.pixel_count() as f64 / total_pixels;
            let budget = ((self.config.n_features as f64 * share).ceil() as usize).max(8);
            let corners = fast::detect(level_img, self.config.fast_threshold);
            let mut ranked: Vec<Candidate> = corners
                .into_iter()
                .filter_map(|c| {
                    // Skip corners whose BRIEF patch would hang far outside.
                    let margin = 4u32;
                    if c.x < margin
                        || c.y < margin
                        || c.x + margin >= level_img.width()
                        || c.y + margin >= level_img.height()
                    {
                        return None;
                    }
                    let harris = harris_response(level_img, c.x, c.y, 3)?;
                    // Negative/zero Harris marks edge or flat responses;
                    // their BRIEF descriptors are generic enough to match
                    // unrelated images, so they are dropped outright.
                    if harris <= 0.0 {
                        return None;
                    }
                    Some(Candidate {
                        level,
                        lx: c.x,
                        ly: c.y,
                        harris,
                    })
                })
                .collect();
            ranked.sort_by(|a, b| b.harris.partial_cmp(&a.harris).expect("finite scores"));
            ranked.truncate(budget);
            candidates.append(&mut ranked);
        }

        // Global re-rank by Harris response and cut to the overall budget.
        candidates.sort_by(|a, b| b.harris.partial_cmp(&a.harris).expect("finite scores"));
        candidates.truncate(self.config.n_features);

        // Blur each level once for BRIEF sampling (only levels that have
        // surviving candidates).
        let mut blurred: Vec<Option<GrayImage>> = vec![None; pyramid.len()];
        for c in &candidates {
            blurred[c.level].get_or_insert_with(|| {
                blur::gaussian_blur(pyramid.level(c.level), self.config.brief_blur_sigma)
                    .expect("blur sigma is positive")
            });
        }

        let mut keypoints = Vec::with_capacity(candidates.len());
        let mut descriptors = DescriptorBlock::with_capacity(candidates.len());
        for c in &candidates {
            let level_img = pyramid.level(c.level);
            let angle = intensity_centroid_angle(level_img, c.lx, c.ly, PATCH_RADIUS as u32);
            let smooth = blurred[c.level].as_ref().expect("level was blurred above");
            let desc = self
                .pattern
                .describe(smooth, c.lx as f32, c.ly as f32, angle);
            let scale = pyramid.scale_of(c.level);
            keypoints.push(Keypoint {
                x: c.lx as f32 * scale,
                y: c.ly as f32 * scale,
                response: c.harris,
                angle,
                octave: c.level as u8,
                scale,
            });
            descriptors.push(&desc);
        }
        stats.keypoints_described = keypoints.len();
        let features = ImageFeatures {
            keypoints,
            descriptors: Descriptors::Binary(descriptors),
        };
        stats.descriptor_bytes = features.descriptors.byte_size();
        (features, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptor::Descriptors;

    fn scene() -> GrayImage {
        GrayImage::from_fn(160, 120, |x, y| {
            let checker = if (x / 13 + y / 11) % 2 == 0 {
                60i32
            } else {
                -60
            };
            let wave = (40.0 * ((x as f32) * 0.21).sin() + 30.0 * ((y as f32) * 0.17).cos()) as i32;
            (128 + checker + wave).clamp(0, 255) as u8
        })
    }

    #[test]
    fn extracts_features_from_textured_scene() {
        let orb = Orb::default();
        let f = orb.extract(&scene());
        assert!(f.len() > 50, "got {}", f.len());
        assert!(matches!(f.descriptors, Descriptors::Binary(_)));
        assert_eq!(f.keypoints.len(), f.descriptors.len());
    }

    #[test]
    fn respects_feature_budget() {
        let orb = Orb::new(OrbConfig {
            n_features: 30,
            ..OrbConfig::default()
        });
        let f = orb.extract(&scene());
        assert!(f.len() <= 30);
    }

    #[test]
    fn flat_image_yields_no_features() {
        let img = GrayImage::from_fn(100, 100, |_, _| 127);
        let f = Orb::default().extract(&img);
        assert!(f.is_empty());
    }

    #[test]
    fn tiny_image_yields_no_features_but_counts_pixels() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * y) % 256) as u8);
        let (f, stats) = Orb::default().extract_with_stats(&img);
        assert!(f.is_empty());
        assert_eq!(stats.pixels_processed, 256);
    }

    #[test]
    fn keypoints_lie_within_original_image() {
        let img = scene();
        let f = Orb::default().extract(&img);
        for kp in &f.keypoints {
            assert!(kp.x >= 0.0 && kp.x < img.width() as f32 + 1.0);
            assert!(kp.y >= 0.0 && kp.y < img.height() as f32 + 1.0);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let img = scene();
        let orb = Orb::default();
        let f1 = orb.extract(&img);
        let f2 = orb.extract(&img);
        assert_eq!(f1, f2);
    }

    #[test]
    fn same_image_features_are_self_similar() {
        // Matching an image against itself should produce near-zero Hamming
        // distances; spot-check the first descriptors.
        let f = Orb::default().extract(&scene());
        if let Descriptors::Binary(d) = &f.descriptors {
            assert!(d.len() > 2);
            assert_eq!(d.descriptor(0).hamming_distance(&d.descriptor(0)), 0);
        } else {
            panic!("ORB must produce binary descriptors");
        }
    }

    #[test]
    fn multi_scale_detection_uses_higher_levels() {
        let f = Orb::default().extract(&scene());
        let has_upper_level = f.keypoints.iter().any(|k| k.octave > 0);
        assert!(has_upper_level, "expected detections above level 0");
    }
}
