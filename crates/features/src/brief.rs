//! Steered BRIEF: the 256-bit binary descriptor used by ORB.
//!
//! BRIEF compares the smoothed intensities of 256 pixel pairs inside a
//! 31×31 patch; each comparison yields one descriptor bit. ORB's "steered"
//! variant rotates the sampling pattern by the keypoint orientation so the
//! descriptor is rotation-invariant. The reference implementation ships a
//! machine-learned pattern (rBRIEF); we use the standard practical
//! alternative of a deterministic, seeded Gaussian pattern — pairs drawn
//! from `N(0, (patch/5)²)` as in the original BRIEF paper.

use crate::descriptor::BinaryDescriptor;
use bees_image::{round_i32, GrayImage};
use bees_rng::ChaCha8Rng;

/// Half-width of the BRIEF patch (pattern points live in `[-15, 15]²`).
pub const PATCH_RADIUS: i32 = 15;

/// Default seed for the sampling pattern. Every extractor in the workspace
/// must use the same pattern or descriptors would be incomparable.
pub const DEFAULT_PATTERN_SEED: u64 = 0x0BEE5_u64;

/// One BRIEF comparison: two sampling points relative to the keypoint.
pub type PointPair = ((f32, f32), (f32, f32));

/// A fixed set of 256 sampling point pairs.
#[derive(Debug, Clone)]
pub struct BriefPattern {
    pairs: Vec<PointPair>,
}

impl BriefPattern {
    /// Generates the deterministic pattern for `seed`: 256 point pairs drawn
    /// from an isotropic Gaussian (σ = patch/5), clamped to the patch.
    pub fn new(seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sigma = PATCH_RADIUS as f32 * 2.0 / 5.0;
        let sample = |rng: &mut ChaCha8Rng| -> (f32, f32) {
            // Box-Muller transform for Gaussian samples.
            loop {
                let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                let u2: f32 = rng.gen_range(0.0..1.0);
                let mag = sigma * (-2.0 * u1.ln()).sqrt();
                let x = mag * (2.0 * std::f32::consts::PI * u2).cos();
                let y = mag * (2.0 * std::f32::consts::PI * u2).sin();
                if x.abs() <= PATCH_RADIUS as f32 && y.abs() <= PATCH_RADIUS as f32 {
                    return (x, y);
                }
            }
        };
        let mut pairs = Vec::with_capacity(BinaryDescriptor::BITS);
        for _ in 0..BinaryDescriptor::BITS {
            pairs.push((sample(&mut rng), sample(&mut rng)));
        }
        BriefPattern { pairs }
    }

    /// The point pairs of the pattern.
    pub fn pairs(&self) -> &[PointPair] {
        &self.pairs
    }

    /// Computes the steered BRIEF descriptor for a keypoint at `(x, y)` in
    /// the coordinates of `img` (one pyramid level), with patch orientation
    /// `angle` (radians). `img` should already be smoothed; out-of-image
    /// samples clamp to the border.
    pub fn describe(&self, img: &GrayImage, x: f32, y: f32, angle: f32) -> BinaryDescriptor {
        let (sin, cos) = angle.sin_cos();
        let (last_x, last_y) = (img.width() as i64 - 1, img.height() as i64 - 1);
        let (width, pixels) = (img.width() as usize, img.pixels());
        let sample = |(px, py): (f32, f32)| -> u8 {
            // Rotate the pattern point by the keypoint angle, round it to a
            // pixel and clamp it to the border.
            let rx = cos * px - sin * py;
            let ry = sin * px + cos * py;
            let sx = (round_i32(x + rx) as i64).max(0).min(last_x);
            let sy = (round_i32(y + ry) as i64).max(0).min(last_y);
            pixels[sy as usize * width + sx as usize]
        };
        let mut desc = BinaryDescriptor::zero();
        for (i, &(a, b)) in self.pairs.iter().enumerate() {
            if sample(a) < sample(b) {
                desc.set_bit(i);
            }
        }
        desc
    }
}

impl Default for BriefPattern {
    fn default() -> Self {
        BriefPattern::new(DEFAULT_PATTERN_SEED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_image::blur::gaussian_blur;

    fn textured() -> GrayImage {
        GrayImage::from_fn(64, 64, |x, y| {
            (128.0
                + 80.0 * ((x as f32) * 0.35).sin()
                + 60.0 * ((y as f32) * 0.27).cos()
                + ((x * 13 + y * 7) % 31) as f32)
                .clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn pattern_is_deterministic() {
        let a = BriefPattern::new(7);
        let b = BriefPattern::new(7);
        assert_eq!(a.pairs(), b.pairs());
        let c = BriefPattern::new(8);
        assert_ne!(a.pairs(), c.pairs());
    }

    #[test]
    fn pattern_points_stay_in_patch() {
        let p = BriefPattern::default();
        assert_eq!(p.pairs().len(), 256);
        for &((ax, ay), (bx, by)) in p.pairs() {
            for v in [ax, ay, bx, by] {
                assert!(v.abs() <= PATCH_RADIUS as f32);
            }
        }
    }

    #[test]
    fn descriptor_is_stable_for_same_input() {
        let img = gaussian_blur(&textured(), 2.0).unwrap();
        let p = BriefPattern::default();
        let d1 = p.describe(&img, 32.0, 32.0, 0.3);
        let d2 = p.describe(&img, 32.0, 32.0, 0.3);
        assert_eq!(d1, d2);
    }

    #[test]
    fn different_locations_give_different_descriptors() {
        let img = gaussian_blur(&textured(), 2.0).unwrap();
        let p = BriefPattern::default();
        let d1 = p.describe(&img, 20.0, 20.0, 0.0);
        let d2 = p.describe(&img, 44.0, 40.0, 0.0);
        assert!(d1.hamming_distance(&d2) > 20);
    }

    #[test]
    fn steering_tracks_patch_rotation_quarter_turn() {
        // Describe a patch, then rotate the image 90° and describe the same
        // (rotated) location with the rotated angle: descriptors should be
        // much closer than chance (~128).
        let img = gaussian_blur(&textured(), 2.0).unwrap();
        let rotated = GrayImage::from_fn(64, 64, |x, y| img.get(y, 63 - x));
        let p = BriefPattern::default();
        let base_angle = 0.4f32;
        let d1 = p.describe(&img, 30.0, 28.0, base_angle);
        // rotated(x', y') = img(y', 63 - x'), so img (ix, iy) lands at
        // (63 - iy, ix) and direction vectors rotate by +90 degrees.
        let d2 = p.describe(
            &rotated,
            63.0 - 28.0,
            30.0,
            base_angle + std::f32::consts::FRAC_PI_2,
        );
        let dist = d1.hamming_distance(&d2);
        assert!(
            dist < 80,
            "steered distance {dist} should beat chance (128)"
        );
    }

    #[test]
    fn edge_keypoints_do_not_panic() {
        let img = textured();
        let p = BriefPattern::default();
        let _ = p.describe(&img, 0.0, 0.0, 1.0);
        let _ = p.describe(&img, 63.0, 63.0, -2.0);
    }
}
