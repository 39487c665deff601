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
//!   zigzag, RLE + Rice entropy coding) standing in for JPEG,
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
