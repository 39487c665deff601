//! The [`FeatureExtractor`] abstraction shared by ORB, SIFT, and PCA-SIFT.
//!
//! The energy model in `bees-energy` charges joules per unit of *work*, so
//! extractors report [`ExtractionStats`] describing how much work they did
//! (pixels touched during detection, keypoints described).

use crate::descriptor::ImageFeatures;
use bees_image::GrayImage;
use std::fmt;

/// Which feature algorithm an extractor implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExtractorKind {
    /// ORB: FAST + Harris + steered BRIEF, 256-bit binary descriptors.
    Orb,
    /// SIFT: DoG extrema + 128-d gradient-histogram descriptors.
    Sift,
    /// PCA-SIFT: SIFT keypoints with gradient patches projected to 36-d.
    PcaSift,
}

impl fmt::Display for ExtractorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExtractorKind::Orb => "ORB",
            ExtractorKind::Sift => "SIFT",
            ExtractorKind::PcaSift => "PCA-SIFT",
        };
        f.write_str(name)
    }
}

/// Work accounting for one extraction, consumed by the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExtractionStats {
    /// Pixels touched by detection (all pyramid/scale-space levels).
    pub pixels_processed: usize,
    /// Keypoints that received a descriptor.
    pub keypoints_described: usize,
    /// Serialized descriptor payload in bytes.
    pub descriptor_bytes: usize,
}

impl ExtractionStats {
    /// Accumulates another stats record into this one.
    pub fn merge(&mut self, other: &ExtractionStats) {
        self.pixels_processed += other.pixels_processed;
        self.keypoints_described += other.keypoints_described;
        self.descriptor_bytes += other.descriptor_bytes;
    }
}

/// A local-feature extraction algorithm.
///
/// Implemented by [`Orb`](crate::orb::Orb), [`Sift`](crate::sift::Sift), and
/// [`PcaSift`](crate::pca::PcaSift). The trait is object-safe so schemes can
/// hold a `Box<dyn FeatureExtractor>`, and `Sync` so one extractor can serve
/// a batch fanned out one image per runtime task.
pub trait FeatureExtractor: Sync {
    /// Which algorithm this is (used for reporting and energy coefficients).
    fn kind(&self) -> ExtractorKind;

    /// Extracts features and reports the work done.
    fn extract_with_stats(&self, img: &GrayImage) -> (ImageFeatures, ExtractionStats);

    /// Extracts features, discarding the work statistics.
    fn extract(&self, img: &GrayImage) -> ImageFeatures {
        self.extract_with_stats(img).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_displays_paper_names() {
        assert_eq!(ExtractorKind::Orb.to_string(), "ORB");
        assert_eq!(ExtractorKind::Sift.to_string(), "SIFT");
        assert_eq!(ExtractorKind::PcaSift.to_string(), "PCA-SIFT");
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = ExtractionStats {
            pixels_processed: 10,
            keypoints_described: 2,
            descriptor_bytes: 64,
        };
        let b = ExtractionStats {
            pixels_processed: 5,
            keypoints_described: 1,
            descriptor_bytes: 32,
        };
        a.merge(&b);
        assert_eq!(a.pixels_processed, 15);
        assert_eq!(a.keypoints_described, 3);
        assert_eq!(a.descriptor_bytes, 96);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes_dyn(_e: &dyn FeatureExtractor) {}
    }
}
