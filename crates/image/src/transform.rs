//! Lossless geometric transforms: quarter-turn rotations and a mirror.
//!
//! Used by tests to exercise ORB's steered-BRIEF rotation invariance.

use crate::GrayImage;

/// Rotates 90° clockwise (width and height swap).
pub fn rotate90(src: &GrayImage) -> GrayImage {
    let (w, h) = src.dimensions();
    GrayImage::from_fn(h, w, |x, y| src.get(y, h - 1 - x))
}

/// Rotates 180°.
pub fn rotate180(src: &GrayImage) -> GrayImage {
    let (w, h) = src.dimensions();
    GrayImage::from_fn(w, h, |x, y| src.get(w - 1 - x, h - 1 - y))
}

/// Rotates 270° clockwise (i.e. 90° counter-clockwise).
pub fn rotate270(src: &GrayImage) -> GrayImage {
    let (w, h) = src.dimensions();
    let _ = h;
    GrayImage::from_fn(src.height(), src.width(), |x, y| src.get(w - 1 - y, x))
}

/// Mirrors horizontally (left-right).
pub fn flip_horizontal(src: &GrayImage) -> GrayImage {
    let (w, h) = src.dimensions();
    GrayImage::from_fn(w, h, |x, y| src.get(w - 1 - x, y))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GrayImage {
        GrayImage::from_fn(5, 3, |x, y| (x * 10 + y) as u8)
    }

    #[test]
    fn rotate90_swaps_dimensions_and_maps_corners() {
        let img = sample();
        let r = rotate90(&img);
        assert_eq!(r.dimensions(), (3, 5));
        // Top-left of the original lands at the top-right.
        assert_eq!(r.get(2, 0), img.get(0, 0));
        // Bottom-left lands at top-left.
        assert_eq!(r.get(0, 0), img.get(0, 2));
    }

    #[test]
    fn four_quarter_turns_are_identity() {
        let img = sample();
        let back = rotate90(&rotate90(&rotate90(&rotate90(&img))));
        assert_eq!(back, img);
    }

    #[test]
    fn rotate180_equals_two_rotate90() {
        let img = sample();
        assert_eq!(rotate180(&img), rotate90(&rotate90(&img)));
    }

    #[test]
    fn rotate270_equals_three_rotate90() {
        let img = sample();
        assert_eq!(rotate270(&img), rotate90(&rotate90(&rotate90(&img))));
    }

    #[test]
    fn flips_are_involutions() {
        let img = sample();
        assert_eq!(flip_horizontal(&flip_horizontal(&img)), img);
    }
}
