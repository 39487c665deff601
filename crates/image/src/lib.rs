#![warn(missing_docs)]

//! Raster image substrate for the BEES reproduction.
//!
//! The BEES paper ([Zuo et al., ICDCS 2017]) manipulates smartphone photos through
//! OpenCV: it shrinks in-memory bitmaps before feature extraction (Approximate
//! Feature Extraction), JPEG-compresses and down-samples images before uploading
//! (Approximate Image Uploading), and scores the result with SSIM. This crate
//! provides all of those primitives from scratch:
//!
//! * [`GrayImage`] / [`RgbImage`] — owned 8-bit raster images,
//! * [`resize`] — box-filter and bilinear resampling plus the paper's
//!   *bitmap compression proportion* semantics,
//! * [`blur`] — separable Gaussian filtering used by the feature extractors,
//! * [`codec`] — a real lossy DCT image codec (quality-scaled quantization,
//!   zigzag, run-length + exp-Golomb entropy coding) standing in for JPEG,
//! * [`metrics`] — MSE / PSNR / SSIM image-quality metrics,
//! * [`draw`] — deterministic drawing primitives used by the synthetic datasets,
//! * [`transform`] — lossless quarter-turn rotations and flips.
//!
//! # Examples
//!
//! ```
//! use bees_image::{GrayImage, resize, metrics};
//!
//! # fn main() -> Result<(), bees_image::ImageError> {
//! let img = GrayImage::from_fn(64, 48, |x, y| ((x * 3 + y * 5) % 256) as u8);
//! // The paper's "compression proportion" C shrinks each side by a factor (1 - C).
//! let small = resize::compress_bitmap(&img, 0.5)?;
//! assert_eq!(small.width(), 32);
//! let back = resize::resize_bilinear(&small, 64, 48)?;
//! let ssim = metrics::ssim(&img, &back)?;
//! assert!(ssim > 0.5);
//! # Ok(())
//! # }
//! ```

pub mod blur;
pub mod codec;
pub mod draw;
mod error;
mod gray;
pub mod metrics;
pub mod resize;
mod rgb;
pub mod transform;

pub use error::ImageError;
pub use gray::{GrayF32, GrayImage};
pub use rgb::{Rgb, RgbImage};

/// Shorthand result type used throughout the crate.
pub type Result<T> = std::result::Result<T, ImageError>;

/// `x.round().clamp(0.0, 255.0) as u8`, bit for bit, without a call.
///
/// `f32::round` is an out-of-line `roundf` call on targets without SSE4.1,
/// and a call in a per-pixel loop also blocks vectorisation. Adding the
/// largest `f32` below one half and truncating rounds halves away from
/// zero, as `round` does. `max` (not `clamp`) maps NaN and negatives to 0,
/// and the saturating cast clamps above 255, so nothing is clamped twice.
#[inline]
pub(crate) fn round_u8(x: f32) -> u8 {
    (x.max(0.0) + 0.499_999_97) as u8
}

/// `x.round().clamp(0.0, 255.0) as u8` for an `f64`, bit for bit, without
/// a call: [`round_u8`] with the largest `f64` below one half.
#[inline]
pub(crate) fn round_u8_f64(x: f64) -> u8 {
    (x.max(0.0) + 0.499_999_999_999_999_94) as u8
}

/// `x.round() as i32`, bit for bit, without a call.
///
/// `f32::round` is an out-of-line `roundf` call on targets without SSE4.1.
/// Adding the largest `f32` below one half, with `x`'s sign, and
/// truncating rounds halves away from zero, as `round` does; NaN maps to
/// 0 and `as` saturates out-of-range values, as before.
///
/// # Examples
///
/// ```
/// use bees_image::round_i32;
///
/// assert_eq!(round_i32(2.5), 3);
/// assert_eq!(round_i32(-2.5), -3);
/// assert_eq!(round_i32(0.499_999_97), 0);
/// ```
#[inline]
pub fn round_i32(x: f32) -> i32 {
    (x + 0.499_999_97f32.copysign(x)) as i32
}

/// The number of `T` samples in a `width × height` image, or
/// [`ImageError::InvalidDimensions`] when a side is zero or the buffer would
/// exceed `isize::MAX` bytes, the most one allocation may hold.
pub(crate) fn pixel_len<T>(width: u32, height: u32) -> Result<usize> {
    let max = isize::MAX as usize / std::mem::size_of::<T>();
    match (width as usize).checked_mul(height as usize) {
        Some(len) if len > 0 && len <= max => Ok(len),
        _ => Err(ImageError::InvalidDimensions { width, height }),
    }
}

#[cfg(test)]
mod tests {
    use super::{round_i32, round_u8, round_u8_f64};

    /// Both helpers against the `f32::round` forms they replace.
    fn check(x: f32) {
        let bits = x.to_bits();
        assert_eq!(
            round_u8(x),
            x.round().clamp(0.0, 255.0) as u8,
            "round_u8({x:e}), bits {bits:#010x}"
        );
        assert_eq!(
            round_i32(x),
            x.round() as i32,
            "round_i32({x:e}), bits {bits:#010x}"
        );
    }

    /// The `f32` `ulps` steps away from `x` in value order (through zero).
    fn ulps_from(x: f32, ulps: i64) -> f32 {
        let bits = x.to_bits();
        let ordered = if bits >> 31 == 1 {
            -i64::from(bits & 0x7fff_ffff)
        } else {
            i64::from(bits)
        } + ulps;
        if ordered < 0 {
            f32::from_bits((-ordered) as u32 | 0x8000_0000)
        } else {
            f32::from_bits(ordered as u32)
        }
    }

    #[test]
    fn rounding_helpers_match_f32_round() {
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            f32::from_bits(0x8000_0001),
            f32::from_bits(0x007f_ffff),
            f32::from_bits(0x807f_ffff),
            f32::MAX,
            f32::MIN,
            0.499_999_97,
            -0.499_999_97,
            8_388_607.5,
            -8_388_607.5,
            16_777_215.0,
            2_147_483_520.0,
            2_147_483_648.0,
            -2_147_483_648.0,
            -2_147_483_904.0,
        ];
        for x in specials {
            check(x);
        }
        // Every value within 64 ulps of each integer and half-integer in
        // [-1100, 1100]: the sample, coefficient and clamp-edge range.
        for half_steps in -2200..=2200 {
            let center = half_steps as f32 * 0.5;
            for ulps in -64..=64 {
                check(ulps_from(center, ulps));
            }
        }
        // Seeded bit patterns over every exponent (SplitMix64).
        let mut state = 0x5EED_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            check(f32::from_bits((z ^ (z >> 31)) as u32));
        }
    }

    /// The `f64` helper against the `f64::round` form it replaces.
    fn check_f64(x: f64) {
        assert_eq!(
            round_u8_f64(x),
            x.round().clamp(0.0, 255.0) as u8,
            "round_u8_f64({x:e}), bits {:#018x}",
            x.to_bits()
        );
    }

    /// The `f64` `ulps` steps away from `x` in value order (through zero).
    fn ulps_from_f64(x: f64, ulps: i64) -> f64 {
        let bits = x.to_bits();
        let ordered = if bits >> 63 == 1 {
            -((bits & 0x7fff_ffff_ffff_ffff) as i64)
        } else {
            bits as i64
        } + ulps;
        if ordered < 0 {
            f64::from_bits((-ordered) as u64 | 0x8000_0000_0000_0000)
        } else {
            f64::from_bits(ordered as u64)
        }
    }

    #[test]
    fn f64_rounding_helper_matches_f64_round() {
        let specials = [
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x8000_0000_0000_0001),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::from_bits(0x800f_ffff_ffff_ffff),
            f64::MAX,
            f64::MIN,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
            254.5,
            255.499_999_999_999_97,
            255.5,
            4_503_599_627_370_495.5,
            9_007_199_254_740_992.0,
        ];
        for x in specials {
            check_f64(x);
        }
        // Every value within 64 ulps of each integer and half-integer in
        // [-2, 258]: the sample range and both clamp edges.
        for half_steps in -4..=516 {
            let center = half_steps as f64 * 0.5;
            for ulps in -64..=64 {
                check_f64(ulps_from_f64(center, ulps));
            }
        }
        // Seeded bit patterns over every exponent (SplitMix64), and the
        // same number of values spread over the sample range.
        let mut state = 0xF64_u64;
        for _ in 0..1_000_000 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            check_f64(f64::from_bits(z));
            check_f64((z >> 11) as f64 / (1u64 << 53) as f64 * 260.0 - 2.0);
        }
    }
}
