//! A lossless predictive codec — the PNG stand-in.
//!
//! The paper (§III-C) lists PNG alongside JPEG as an upload format; PNG's
//! recipe is per-row prediction followed by entropy coding. This module
//! implements the same shape from scratch: each pixel is predicted with the
//! Paeth predictor (the strongest of PNG's five filters), and the residuals
//! are coded with the crate's exp-Golomb entropy coder. Decoding is exact.
//!
//! Lossless rates on photographs are far worse than the lossy DCT path,
//! which is exactly the paper's point in choosing quality compression for
//! AIU; the Fig. 5 binary can be compared against this codec to see the
//! gap.

use super::bits::{BitReader, BitWriter};
use super::entropy::{read_se, write_se};
use crate::{GrayImage, ImageError, Result};

/// Magic byte marking a lossless grayscale bitstream.
const MAGIC_LOSSLESS: u8 = 0xB7;

/// Paeth predictor: picks whichever of left/up/up-left is closest to
/// `left + up − up_left`.
fn paeth(left: i32, up: i32, up_left: i32) -> i32 {
    let p = left + up - up_left;
    let (da, db, dc) = ((p - left).abs(), (p - up).abs(), (p - up_left).abs());
    if da <= db && da <= dc {
        left
    } else if db <= dc {
        up
    } else {
        up_left
    }
}

/// Losslessly encodes a grayscale image.
pub fn encode_gray_lossless(img: &GrayImage) -> Vec<u8> {
    let mut out = Vec::new();
    out.push(MAGIC_LOSSLESS);
    out.extend_from_slice(&img.width().to_le_bytes());
    out.extend_from_slice(&img.height().to_le_bytes());
    let mut writer = BitWriter::new();
    for y in 0..img.height() {
        for x in 0..img.width() {
            let left = if x > 0 { img.get(x - 1, y) as i32 } else { 0 };
            let up = if y > 0 { img.get(x, y - 1) as i32 } else { 0 };
            let up_left = if x > 0 && y > 0 {
                img.get(x - 1, y - 1) as i32
            } else {
                0
            };
            let predicted = paeth(left, up, up_left);
            write_se(&mut writer, (img.get(x, y) as i32 - predicted) as i64);
        }
    }
    out.extend_from_slice(&writer.into_bytes());
    out
}

/// Decodes a bitstream produced by [`encode_gray_lossless`].
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated or malformed
/// input.
pub fn decode_gray_lossless(bytes: &[u8]) -> Result<GrayImage> {
    if bytes.len() < 9 {
        return Err(ImageError::CorruptBitstream {
            detail: "lossless header truncated",
        });
    }
    if bytes[0] != MAGIC_LOSSLESS {
        return Err(ImageError::CorruptBitstream {
            detail: "not a lossless bitstream",
        });
    }
    let width = u32::from_le_bytes(bytes[1..5].try_into().expect("4 bytes"));
    let height = u32::from_le_bytes(bytes[5..9].try_into().expect("4 bytes"));
    if width == 0 || height == 0 {
        return Err(ImageError::CorruptBitstream {
            detail: "zero dimensions in header",
        });
    }
    let mut reader = BitReader::new(&bytes[9..]);
    // A corrupted header can claim absurd dimensions; every exp-Golomb
    // residual costs at least 1 bit, so bound the pixel count by the
    // payload before allocating anything.
    if u64::from(width) * u64::from(height) > reader.bits_remaining() as u64 {
        return Err(ImageError::CorruptBitstream {
            detail: "dimensions exceed payload capacity",
        });
    }
    let mut img = GrayImage::new(width, height)?;
    for y in 0..height {
        for x in 0..width {
            let left = if x > 0 { img.get(x - 1, y) as i32 } else { 0 };
            let up = if y > 0 { img.get(x, y - 1) as i32 } else { 0 };
            let up_left = if x > 0 && y > 0 {
                img.get(x - 1, y - 1) as i32
            } else {
                0
            };
            let predicted = paeth(left, up, up_left);
            let residual = read_se(&mut reader)?;
            let value = predicted as i64 + residual;
            if !(0..=255).contains(&value) {
                return Err(ImageError::CorruptBitstream {
                    detail: "pixel out of range",
                });
            }
            img.set(x, y, value as u8);
        }
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn textured(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            (128.0 + 60.0 * ((x as f64) * 0.3).sin() + 40.0 * ((y as f64) * 0.2).cos())
                .clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn roundtrip_is_exact() {
        for img in [textured(37, 21), textured(8, 8), textured(1, 1)] {
            let decoded = decode_gray_lossless(&encode_gray_lossless(&img)).unwrap();
            assert_eq!(decoded, img);
        }
    }

    #[test]
    fn smooth_images_compress_below_raw() {
        let img = textured(128, 96);
        let encoded = encode_gray_lossless(&img);
        assert!(
            encoded.len() < img.pixel_count(),
            "{} vs raw {}",
            encoded.len(),
            img.pixel_count()
        );
    }

    #[test]
    fn lossless_is_larger_than_lossy_dct() {
        // The paper's rationale for quality compression: lossless cannot
        // compete on rate.
        let img = textured(96, 96);
        let lossless = encode_gray_lossless(&img);
        let lossy = super::super::encode_gray(&img, 50).unwrap();
        assert!(lossless.len() > lossy.len());
    }

    #[test]
    fn corrupt_input_is_rejected() {
        assert!(decode_gray_lossless(&[]).is_err());
        assert!(decode_gray_lossless(&[0xB7, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        let mut good = encode_gray_lossless(&textured(16, 16));
        good[0] = 0x00;
        assert!(decode_gray_lossless(&good).is_err());
        let cut = encode_gray_lossless(&textured(16, 16));
        assert!(decode_gray_lossless(&cut[..cut.len() / 2]).is_err());
    }

    #[test]
    fn random_noise_still_roundtrips() {
        let img = GrayImage::from_fn(33, 17, |x, y| {
            ((x as u64 * 2654435761 + y as u64 * 40503) >> 7) as u8
        });
        assert_eq!(
            decode_gray_lossless(&encode_gray_lossless(&img)).unwrap(),
            img
        );
    }

    #[test]
    fn paeth_matches_png_reference_cases() {
        assert_eq!(paeth(0, 0, 0), 0);
        assert_eq!(paeth(10, 0, 0), 10); // p=10, closest to left
        assert_eq!(paeth(0, 10, 0), 10); // closest to up
        assert_eq!(paeth(5, 5, 5), 5);
        // p = 4 + 6 - 5 = 5: up-left is the exact prediction and wins.
        assert_eq!(paeth(4, 6, 5), 5);
        // Tie-break order: left before up.
        assert_eq!(paeth(4, 6, 9), 4);
    }
}
