//! Image resampling: bilinear and box-filter resizing, plus the BEES paper's
//! *compression proportion* semantics.
//!
//! The paper (§III-A) defines the **bitmap compression proportion** `C` as
//! "the ratio of the decrement in the length or width of the compressed image
//! bitmap to those of the original bitmap": a proportion of `0.4` shrinks a
//! `1000×500` bitmap to `600×300`. The same definition is reused for
//! **resolution compression** in Approximate Image Uploading (§III-C).

use crate::{pixel_len, round_u8_f64, GrayImage, ImageError, Result, Rgb, RgbImage};

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
    let cols = taps(src.width(), width);
    let mut out = Vec::with_capacity(pixel_len::<u8>(width, height)?);
    for row in taps(src.height(), height) {
        let (r0, r1) = (src.row(row.i0), src.row(row.i1));
        let (dy, cdy) = (row.d, row.cd);
        out.extend(cols.iter().map(|col| {
            let (dx, cdx) = (col.d, col.cd);
            let p00 = r0[col.i0 as usize] as f64;
            let p10 = r0[col.i1 as usize] as f64;
            let p01 = r1[col.i0 as usize] as f64;
            let p11 = r1[col.i1 as usize] as f64;
            let v = p00 * cdx * cdy + p10 * dx * cdy + p01 * cdx * dy + p11 * dx * dy;
            round_u8_f64(v)
        }));
    }
    GrayImage::from_raw(width, height, out)
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
    let cols = taps(src.width(), width);
    let src_w = src.width() as usize;
    let mut data = Vec::with_capacity(pixel_len::<Rgb>(width, height)?);
    for row in taps(src.height(), height) {
        let r0 = &src.data[row.i0 as usize * src_w..][..src_w];
        let r1 = &src.data[row.i1 as usize * src_w..][..src_w];
        let (dy, cdy) = (row.d, row.cd);
        data.extend(cols.iter().map(|col| {
            let (dx, cdx) = (col.d, col.cd);
            let (x0, x1) = (col.i0 as usize, col.i1 as usize);
            let ps = [
                (r0[x0], cdx * cdy),
                (r0[x1], dx * cdy),
                (r1[x0], cdx * dy),
                (r1[x1], dx * dy),
            ];
            let mut r = 0.0;
            let mut g = 0.0;
            let mut b = 0.0;
            for (p, w) in ps {
                r += p.r as f64 * w;
                g += p.g as f64 * w;
                b += p.b as f64 * w;
            }
            Rgb::new(round_u8_f64(r), round_u8_f64(g), round_u8_f64(b))
        }));
    }
    Ok(RgbImage {
        width,
        height,
        data,
    })
}

/// One output column's (or row's) bilinear taps: the two source indices,
/// clamped to the source, and the weights `d` and `cd = 1 - d` of the far
/// and near one.
struct Tap {
    i0: u32,
    i1: u32,
    d: f64,
    cd: f64,
}

/// The taps of each of `dst` outputs sampling `src` source pixels, at
/// center-aligned positions (the convention used by OpenCV).
fn taps(src: u32, dst: u32) -> Vec<Tap> {
    let scale = src as f64 / dst as f64;
    let last = src as i64 - 1;
    (0..dst)
        .map(|i| {
            let f = ((i as f64 + 0.5) * scale - 0.5).max(0.0);
            let i0 = f.floor() as i64;
            let d = f - i0 as f64;
            Tap {
                i0: i0.min(last) as u32,
                i1: (i0 + 1).min(last) as u32,
                d,
                cd: 1.0 - d,
            }
        })
        .collect()
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
