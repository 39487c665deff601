//! Image resampling: bilinear and box-filter resizing, plus the BEES paper's
//! *compression proportion* semantics.
//!
//! The paper (§III-A) defines the **bitmap compression proportion** `C` as
//! "the ratio of the decrement in the length or width of the compressed image
//! bitmap to those of the original bitmap": a proportion of `0.4` shrinks a
//! `1000×500` bitmap to `600×300`. The same definition is reused for
//! **resolution compression** in Approximate Image Uploading (§III-C).

use crate::{GrayImage, ImageError, Result, Rgb, RgbImage};

/// Resizes a grayscale image with bilinear interpolation.
///
/// Bilinear sampling matches what OpenCV's default `resize` does and is what
/// the prototype used for bitmap compression before feature extraction.
///
/// # Errors
///
/// Returns [`ImageError::InvalidDimensions`] if either target dimension is
/// zero.
///
/// # Examples
///
/// ```
/// use bees_image::{GrayImage, resize};
///
/// # fn main() -> Result<(), bees_image::ImageError> {
/// let img = GrayImage::from_fn(10, 10, |x, y| ((x + y) * 12) as u8);
/// let half = resize::resize_bilinear(&img, 5, 5)?;
/// assert_eq!(half.dimensions(), (5, 5));
/// # Ok(())
/// # }
/// ```
pub fn resize_bilinear(src: &GrayImage, width: u32, height: u32) -> Result<GrayImage> {
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }
    let mut out = GrayImage::new(width, height)?;
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    for y in 0..height {
        // Center-aligned sample positions, the convention used by OpenCV.
        let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
        let y0 = fy.floor() as i64;
        let dy = fy - y0 as f64;
        for x in 0..width {
            let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
            let x0 = fx.floor() as i64;
            let dx = fx - x0 as f64;
            let p00 = src.get_clamped(x0, y0) as f64;
            let p10 = src.get_clamped(x0 + 1, y0) as f64;
            let p01 = src.get_clamped(x0, y0 + 1) as f64;
            let p11 = src.get_clamped(x0 + 1, y0 + 1) as f64;
            let v = p00 * (1.0 - dx) * (1.0 - dy)
                + p10 * dx * (1.0 - dy)
                + p01 * (1.0 - dx) * dy
                + p11 * dx * dy;
            out.set(x, y, v.round().clamp(0.0, 255.0) as u8);
        }
    }
    Ok(out)
}

/// Resizes an RGB image with bilinear interpolation, channel by channel.
///
/// # Errors
///
/// Returns [`ImageError::InvalidDimensions`] if either target dimension is
/// zero.
pub fn resize_bilinear_rgb(src: &RgbImage, width: u32, height: u32) -> Result<RgbImage> {
    if width == 0 || height == 0 {
        return Err(ImageError::InvalidDimensions { width, height });
    }
    let mut out = RgbImage::new(width, height)?;
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    let clamped = |x: i64, y: i64| -> Rgb {
        let cx = x.clamp(0, src.width() as i64 - 1) as u32;
        let cy = y.clamp(0, src.height() as i64 - 1) as u32;
        src.get(cx, cy)
    };
    for y in 0..height {
        let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
        let y0 = fy.floor() as i64;
        let dy = fy - y0 as f64;
        for x in 0..width {
            let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
            let x0 = fx.floor() as i64;
            let dx = fx - x0 as f64;
            let ps = [
                (clamped(x0, y0), (1.0 - dx) * (1.0 - dy)),
                (clamped(x0 + 1, y0), dx * (1.0 - dy)),
                (clamped(x0, y0 + 1), (1.0 - dx) * dy),
                (clamped(x0 + 1, y0 + 1), dx * dy),
            ];
            let mut r = 0.0;
            let mut g = 0.0;
            let mut b = 0.0;
            for (p, w) in ps {
                r += p.r as f64 * w;
                g += p.g as f64 * w;
                b += p.b as f64 * w;
            }
            out.set(
                x,
                y,
                Rgb::new(
                    r.round().clamp(0.0, 255.0) as u8,
                    g.round().clamp(0.0, 255.0) as u8,
                    b.round().clamp(0.0, 255.0) as u8,
                ),
            );
        }
    }
    Ok(out)
}

/// Returns the target dimensions for a given compression proportion `c`
/// applied to `(width, height)`: each side shrinks by the factor `1 - c`,
/// with a floor of one pixel.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] unless `0.0 <= c < 1.0`.
pub fn compressed_dimensions(width: u32, height: u32, c: f64) -> Result<(u32, u32)> {
    if !(0.0..1.0).contains(&c) {
        return Err(ImageError::InvalidParameter {
            name: "compression_proportion",
            value: c,
        });
    }
    let w = ((width as f64 * (1.0 - c)).round() as u32).max(1);
    let h = ((height as f64 * (1.0 - c)).round() as u32).max(1);
    Ok((w, h))
}

/// Applies the paper's bitmap compression: shrinks each side of `src` by the
/// factor `1 - c` using bilinear resampling (`c = 0` returns a copy).
///
/// This is the operation Approximate Feature Extraction performs before
/// running ORB, with `c` chosen by the energy-aware adaptive compression
/// scheme `C = 0.4 − 0.4·Ebat`.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] unless `0.0 <= c < 1.0`.
///
/// # Examples
///
/// ```
/// use bees_image::{GrayImage, resize};
///
/// # fn main() -> Result<(), bees_image::ImageError> {
/// let img = GrayImage::from_fn(1000, 500, |x, y| (x ^ y) as u8);
/// let small = resize::compress_bitmap(&img, 0.4)?;
/// assert_eq!(small.dimensions(), (600, 300));
/// # Ok(())
/// # }
/// ```
pub fn compress_bitmap(src: &GrayImage, c: f64) -> Result<GrayImage> {
    let (w, h) = compressed_dimensions(src.width(), src.height(), c)?;
    if (w, h) == src.dimensions() {
        return Ok(src.clone());
    }
    resize_bilinear(src, w, h)
}

/// Applies the paper's resolution compression to an RGB image (Approximate
/// Image Uploading), shrinking each side by the factor `1 - c`.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] unless `0.0 <= c < 1.0`.
pub fn compress_resolution_rgb(src: &RgbImage, c: f64) -> Result<RgbImage> {
    let (w, h) = compressed_dimensions(src.width(), src.height(), c)?;
    if (w, h) == src.dimensions() {
        return Ok(src.clone());
    }
    resize_bilinear_rgb(src, w, h)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compressed_dimensions_match_paper_example() {
        // §III-C: 1000x500 at proportion 0.2 becomes 800x400.
        assert_eq!(compressed_dimensions(1000, 500, 0.2).unwrap(), (800, 400));
        // §III-C EAU example: 2448x3264 at Cr = 0.76 -> 588x783.
        assert_eq!(compressed_dimensions(2448, 3264, 0.76).unwrap(), (588, 783));
    }

    #[test]
    fn proportion_out_of_range_is_rejected() {
        assert!(compressed_dimensions(10, 10, 1.0).is_err());
        assert!(compressed_dimensions(10, 10, -0.1).is_err());
        let img = GrayImage::from_fn(4, 4, |_, _| 0);
        assert!(compress_bitmap(&img, 1.5).is_err());
    }

    #[test]
    fn zero_proportion_is_identity() {
        let img = GrayImage::from_fn(9, 7, |x, y| (x * y) as u8);
        let same = compress_bitmap(&img, 0.0).unwrap();
        assert_eq!(same, img);
    }

    #[test]
    fn bilinear_preserves_constant_images() {
        let img = GrayImage::from_fn(12, 9, |_, _| 99);
        let out = resize_bilinear(&img, 5, 4).unwrap();
        assert!(out.pixels().iter().all(|&p| p == 99));
    }

    #[test]
    fn bilinear_upscale_then_check_bounds() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x * 100 + y * 10) as u8);
        let big = resize_bilinear(&img, 9, 9).unwrap();
        assert_eq!(big.dimensions(), (9, 9));
        // All values stay within the source min/max range.
        let (mn, mx) = img
            .pixels()
            .iter()
            .fold((255u8, 0u8), |(a, b), &p| (a.min(p), b.max(p)));
        assert!(big.pixels().iter().all(|&p| p >= mn && p <= mx));
    }

    #[test]
    fn rgb_resolution_compression_shrinks_bytes() {
        let img = RgbImage::from_fn(100, 80, |x, y| Rgb::new(x as u8, y as u8, 7));
        let small = compress_resolution_rgb(&img, 0.5).unwrap();
        assert_eq!(small.dimensions(), (50, 40));
        assert!(small.raw_byte_size() * 3 < img.raw_byte_size());
    }

    #[test]
    fn minimum_one_pixel_floor() {
        assert_eq!(compressed_dimensions(2, 2, 0.9).unwrap(), (1, 1));
    }
}
