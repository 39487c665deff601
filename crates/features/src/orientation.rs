//! Intensity-centroid patch orientation (the "o" in oFAST).
//!
//! ORB assigns each keypoint the angle from the patch center to its
//! intensity centroid: `θ = atan2(m01, m10)` over a circular patch. The
//! steered BRIEF pattern is then rotated by θ, making the descriptor
//! rotation-invariant.

use bees_image::GrayImage;

/// Default patch radius used by ORB (a 31×31 patch).
pub const DEFAULT_RADIUS: u32 = 15;

/// Computes the intensity-centroid orientation at `(x, y)` over a circular
/// patch of the given radius. Coordinates outside the image are clamped to
/// the border, so the function is total.
///
/// Returns an angle in radians in `(-PI, PI]`. A perfectly symmetric patch
/// yields `0.0`.
///
/// # Examples
///
/// ```
/// use bees_features::orientation::intensity_centroid_angle;
/// use bees_image::GrayImage;
///
/// // Brighter on the right: centroid points along +x, angle ~ 0.
/// let img = GrayImage::from_fn(33, 33, |x, _| if x > 16 { 200 } else { 10 });
/// let angle = intensity_centroid_angle(&img, 16, 16, 15);
/// assert!(angle.abs() < 0.1);
/// ```
pub fn intensity_centroid_angle(img: &GrayImage, x: u32, y: u32, radius: u32) -> f32 {
    let r = radius as i64;
    let (cx, cy) = (x as i64, y as i64);
    let last_x = img.width() as i64 - 1;
    let mut m01 = 0i64;
    let mut m10 = 0i64;
    for dy in -r..=r {
        // The patch's span on this row: every dx with dx² + dy² <= r².
        let half = ((r * r - dy * dy) as u64).isqrt() as i64;
        let row = img.row((cy + dy).clamp(0, img.height() as i64 - 1) as u32);
        let mut sum = 0i64;
        let mut moment = 0i64;
        for dx in -half..=half {
            let v = row[(cx + dx).clamp(0, last_x) as usize] as i64;
            sum += v;
            moment += dx * v;
        }
        // Integer moments: the same totals in any order.
        m10 += moment;
        m01 += dy * sum;
    }
    if m01 == 0 && m10 == 0 {
        return 0.0;
    }
    (m01 as f32).atan2(m10 as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f32::consts::{FRAC_PI_2, PI};

    fn gradient_up() -> GrayImage {
        // Brighter toward larger y: centroid along +y, angle ~ +PI/2.
        GrayImage::from_fn(33, 33, |_, y| (y * 7).min(255) as u8)
    }

    #[test]
    fn angle_follows_brightness_direction() {
        let up = intensity_centroid_angle(&gradient_up(), 16, 16, 15);
        assert!((up - FRAC_PI_2).abs() < 0.1, "got {up}");
        let left = GrayImage::from_fn(33, 33, |x, _| if x < 16 { 200 } else { 10 });
        let a = intensity_centroid_angle(&left, 16, 16, 15);
        assert!((a.abs() - PI).abs() < 0.1, "got {a}");
    }

    #[test]
    fn symmetric_patch_has_zero_angle() {
        let img = GrayImage::from_fn(33, 33, |_, _| 50);
        assert_eq!(intensity_centroid_angle(&img, 16, 16, 15), 0.0);
    }

    #[test]
    fn rotation_by_quarter_turn_rotates_angle() {
        let img = gradient_up();
        // Transpose the image: gradient now along +x.
        let t = GrayImage::from_fn(33, 33, |x, y| img.get(y, x));
        let a = intensity_centroid_angle(&t, 16, 16, 15);
        assert!(a.abs() < 0.1, "got {a}");
    }

    #[test]
    fn border_keypoints_do_not_panic() {
        let img = gradient_up();
        let _ = intensity_centroid_angle(&img, 0, 0, 15);
        let _ = intensity_centroid_angle(&img, 32, 32, 15);
    }
}
