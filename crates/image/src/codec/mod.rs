//! A lossy block-DCT image codec standing in for JPEG.
//!
//! BEES' Approximate Image Uploading (§III-C) trades image quality for
//! bandwidth with JPEG *quality compression* before upload. This module
//! implements the same transform-coding recipe from scratch so that the
//! quality ↔ file-size ↔ SSIM trade-off is real rather than modeled:
//!
//! 1. level shift and 8×8 block split (grayscale, or YCbCr with 4:2:0 chroma
//!    subsampling for color),
//! 2. 2-D type-II DCT per block ([`dct`]),
//! 3. quantization with quality-scaled tables using the libjpeg scaling
//!    formula ([`quant`]),
//! 4. zigzag scan ([`zigzag`]) and
//! 5. entropy coding: differential DC + run-length AC with exp-Golomb codes
//!    ([`entropy`]).
//!
//! The decoder inverts every step, so [`metrics::ssim`](crate::metrics::ssim)
//! can score the decoded image against the original exactly as the paper's
//! Fig. 5(a) does. A lossless Paeth-predictive codec (the PNG stand-in the
//! paper mentions) lives in [`lossless`].
//!
//! # Examples
//!
//! ```
//! use bees_image::{GrayImage, codec};
//!
//! # fn main() -> Result<(), bees_image::ImageError> {
//! let img = GrayImage::from_fn(64, 64, |x, y| ((x * x + y * 3) % 256) as u8);
//! let high = codec::encode_gray(&img, 90)?;
//! let low = codec::encode_gray(&img, 10)?;
//! assert!(low.len() < high.len());
//! let decoded = codec::decode_gray(&high)?;
//! assert_eq!(decoded.dimensions(), img.dimensions());
//! # Ok(())
//! # }
//! ```

pub mod bits;
pub mod dct;
pub mod entropy;
pub mod lossless;
pub mod progressive;
pub mod quant;
pub mod zigzag;

use crate::{round_u8, GrayImage, ImageError, Result, Rgb, RgbImage};
use bits::{BitReader, BitWriter};

/// Magic byte marking a grayscale bitstream.
const MAGIC_GRAY: u8 = 0xB1;
/// Magic byte marking a YCbCr 4:2:0 bitstream.
const MAGIC_COLOR: u8 = 0xB3;
/// Header bytes: magic, little-endian width and height, quality.
const HEADER_LEN: usize = 10;

/// Encodes a grayscale image at the given quality (1..=100).
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside
/// `1..=100`.
pub fn encode_gray(img: &GrayImage, quality: u8) -> Result<Vec<u8>> {
    let table = quant::luminance_table(quality)?;
    let (width, height) = img.dimensions();
    let mut writer = baseline_writer(MAGIC_GRAY, width, height, quality, img.pixel_count());
    encode_plane(&mut writer, &PlaneView::from_gray(img), &table);
    Ok(finish(writer))
}

/// Decodes a grayscale bitstream produced by [`encode_gray`].
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated or malformed input.
pub fn decode_gray(bytes: &[u8]) -> Result<GrayImage> {
    let (magic, width, height, quality, payload) = read_header(bytes)?;
    if magic != MAGIC_GRAY {
        return Err(ImageError::CorruptBitstream {
            detail: "not a grayscale bitstream",
        });
    }
    let table = quant::luminance_table(quality)?;
    let mut reader = BitReader::new(payload);
    let plane = decode_plane(&mut reader, width, height, &table)?;
    Ok(plane.into_gray())
}

/// Encodes an RGB image at the given quality with 4:2:0 chroma subsampling.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside
/// `1..=100`.
pub fn encode_rgb(img: &RgbImage, quality: u8) -> Result<Vec<u8>> {
    let lum = quant::luminance_table(quality)?;
    let chrom = quant::chrominance_table(quality)?;
    let (y_plane, cb_plane, cr_plane) = split_ycbcr(img);
    let samples = y_plane.data.len() + cb_plane.data.len() + cr_plane.data.len();
    let (width, height) = img.dimensions();
    let mut writer = baseline_writer(MAGIC_COLOR, width, height, quality, samples);
    encode_plane(&mut writer, &y_plane, &lum);
    encode_plane(&mut writer, &cb_plane, &chrom);
    encode_plane(&mut writer, &cr_plane, &chrom);
    Ok(finish(writer))
}

/// Decodes an RGB bitstream produced by [`encode_rgb`].
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated or malformed input.
pub fn decode_rgb(bytes: &[u8]) -> Result<RgbImage> {
    let (magic, width, height, quality, payload) = read_header(bytes)?;
    if magic != MAGIC_COLOR {
        return Err(ImageError::CorruptBitstream {
            detail: "not a color bitstream",
        });
    }
    let lum = quant::luminance_table(quality)?;
    let chrom = quant::chrominance_table(quality)?;
    let cw = width.div_ceil(2).max(1);
    let ch = height.div_ceil(2).max(1);
    let mut reader = BitReader::new(payload);
    let y_plane = decode_plane(&mut reader, width, height, &lum)?;
    let cb_plane = decode_plane(&mut reader, cw, ch, &chrom)?;
    let cr_plane = decode_plane(&mut reader, cw, ch, &chrom)?;
    Ok(merge_ycbcr(&y_plane, &cb_plane, &cr_plane))
}

/// Returns only the encoded size in bytes (the quantity AIU cares about).
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside
/// `1..=100`.
pub fn encoded_rgb_size(img: &RgbImage, quality: u8) -> Result<usize> {
    Ok(encode_rgb(img, quality)?.len())
}

/// A colour payload re-encoded at a lower quality by [`recompress`].
#[derive(Debug, Clone, PartialEq)]
pub struct Recompressed {
    /// The re-encode: a baseline colour bitstream.
    pub bytes: Vec<u8>,
    /// Luminance SSIM of the re-encode's decode against the payload's.
    pub ssim: f64,
}

/// Re-encodes a colour payload at `quality` and scores the result.
///
/// The payload may be a baseline colour bitstream or a progressive one
/// carrying every scan. Its decode is re-encoded with [`encode_rgb`]; the
/// re-encode is decoded again and scored against the payload's decode by
/// [`metrics::ssim`](crate::metrics::ssim) on luminance.
///
/// Returns `None` when the payload is not a complete colour bitstream of
/// this codec (foreign bytes, grayscale, a progressive prefix missing
/// scans), when `quality` is out of range, or when the re-encode is not
/// strictly smaller than the payload.
pub fn recompress(bytes: &[u8], quality: u8) -> Option<Recompressed> {
    // Scoped so the colour decode is freed before the second decode and
    // SSIM: concurrent tasks each hold one working set.
    let (old, reencoded) = {
        let rgb = match decode_rgb(bytes) {
            Ok(img) => img,
            Err(_) => match progressive::decode_partial(bytes) {
                Ok((progressive::DecodedImage::Rgb(img), progress)) if progress.is_complete() => {
                    img
                }
                _ => return None,
            },
        };
        (rgb.to_gray(), encode_rgb(&rgb, quality).ok()?)
    };
    if reencoded.len() >= bytes.len() {
        return None;
    }
    let new = decode_rgb(&reencoded).ok()?.to_gray();
    let ssim = crate::metrics::ssim(&old, &new).ok()?;
    Some(Recompressed {
        bytes: reencoded,
        ssim,
    })
}

/// [`recompress`] over many payloads, one payload per runtime task, with
/// the outcomes in payload order. Each outcome depends only on its payload,
/// so the result equals a sequential map at any worker count. Each task's
/// codec and SSIM work runs sequentially.
pub fn recompress_all(payloads: &[&[u8]], quality: u8) -> Vec<Option<Recompressed>> {
    bees_runtime::par_map(payloads, |bytes| recompress(bytes, quality))
}

/// Starts a baseline bitstream behind its header, in one vector with room
/// for a byte per plane sample: photo-like planes code to well under that
/// up to about q90, so the stream rarely outgrows it.
fn baseline_writer(magic: u8, width: u32, height: u32, quality: u8, samples: usize) -> BitWriter {
    let mut out = Vec::with_capacity(HEADER_LEN + samples);
    write_header(&mut out, magic, width, height, quality);
    BitWriter::with_prefix(out)
}

/// The finished bitstream, its spare capacity released: stored payloads
/// hold only their bytes.
fn finish(writer: BitWriter) -> Vec<u8> {
    let mut bytes = writer.into_bytes();
    bytes.shrink_to_fit();
    bytes
}

fn write_header(out: &mut Vec<u8>, magic: u8, width: u32, height: u32, quality: u8) {
    out.push(magic);
    out.extend_from_slice(&width.to_le_bytes());
    out.extend_from_slice(&height.to_le_bytes());
    out.push(quality);
}

fn read_header(bytes: &[u8]) -> Result<(u8, u32, u32, u8, &[u8])> {
    if bytes.len() < HEADER_LEN {
        return Err(ImageError::CorruptBitstream {
            detail: "header truncated",
        });
    }
    let magic = bytes[0];
    let width = u32::from_le_bytes(bytes[1..5].try_into().expect("slice is 4 bytes"));
    let height = u32::from_le_bytes(bytes[5..9].try_into().expect("slice is 4 bytes"));
    let quality = bytes[9];
    if width == 0 || height == 0 {
        return Err(ImageError::CorruptBitstream {
            detail: "zero dimensions in header",
        });
    }
    if !(1..=100).contains(&quality) {
        return Err(ImageError::CorruptBitstream {
            detail: "quality byte out of range",
        });
    }
    Ok((magic, width, height, quality, &bytes[HEADER_LEN..]))
}

/// An owned single-channel plane of f32 samples.
struct PlaneView {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

/// The top-left corners of a `width × height` plane's 8×8 blocks,
/// row-major: the order of every block sequence in a bitstream.
fn block_origins(width: u32, height: u32) -> impl Iterator<Item = (usize, usize)> {
    let (w, h) = (width as usize, height as usize);
    (0..h)
        .step_by(8)
        .flat_map(move |y0| (0..w).step_by(8).map(move |x0| (x0, y0)))
}

impl PlaneView {
    /// An all-zero plane; [`decode_plane`] and [`plane_from_zigzags`]
    /// overwrite every sample.
    fn zeroed(width: u32, height: u32) -> Self {
        PlaneView {
            width,
            height,
            data: vec![0.0; (width as usize) * (height as usize)],
        }
    }

    fn from_gray(img: &GrayImage) -> Self {
        PlaneView {
            width: img.width(),
            height: img.height(),
            data: img.pixels().iter().map(|&p| p as f32).collect(),
        }
    }

    fn into_gray(self) -> GrayImage {
        let data = self.data.iter().map(|&v| round_u8(v)).collect();
        GrayImage::from_raw(self.width, self.height, data).expect("plane dimensions are valid")
    }

    /// Copies the block at `(x0, y0)` out of the plane rows with the level
    /// shift, replicating the last column and row past the plane's edges.
    fn gather(&self, x0: usize, y0: usize, block: &mut [f32; 64]) {
        let (w, h) = (self.width as usize, self.height as usize);
        for (y, out) in block.chunks_exact_mut(8).enumerate() {
            let sy = (y0 + y).min(h - 1);
            let row = &self.data[sy * w..(sy + 1) * w];
            if let Some(src) = row.get(x0..x0 + 8) {
                for (o, &v) in out.iter_mut().zip(src) {
                    *o = v - 128.0;
                }
            } else {
                for (x, o) in out.iter_mut().enumerate() {
                    *o = row[(x0 + x).min(w - 1)] - 128.0;
                }
            }
        }
    }

    /// Dequantizes a block from zigzag order, inverse transforms it and
    /// writes it at `(x0, y0)` into the plane rows with the level shift,
    /// dropping what falls past the plane's edges.
    fn put_zigzag(&mut self, x0: usize, y0: usize, zz: &[i32; 64], table: &[u16; 64]) {
        let (mut coeffs, mut block) = ([0f32; 64], [0f32; 64]);
        quant::dequantize_zigzag(zz, table, &mut coeffs);
        dct::inverse_dct_8x8(&coeffs, &mut block);
        let (w, h) = (self.width as usize, self.height as usize);
        let cols = x0..(x0 + 8).min(w);
        for (y, src) in block.chunks_exact(8).enumerate().take(h - y0) {
            let row = &mut self.data[(y0 + y) * w..(y0 + y + 1) * w];
            for (o, &v) in row[cols.clone()].iter_mut().zip(src) {
                *o = v + 128.0;
            }
        }
    }

    /// Stage 1 of plane encoding: hands `visit` every block, in bitstream
    /// order, gathered, transformed and quantized into zigzag order.
    fn for_each_zigzag(&self, table: &[u16; 64], mut visit: impl FnMut(&[i32; 64])) {
        let (mut block, mut coeffs, mut zz) = ([0f32; 64], [0f32; 64], [0i32; 64]);
        for (x0, y0) in block_origins(self.width, self.height) {
            self.gather(x0, y0, &mut block);
            dct::forward_dct_8x8(&block, &mut coeffs);
            quant::quantize_zigzag(&coeffs, table, &mut zz);
            visit(&zz);
        }
    }
}

/// Every block of `plane` in zigzag order, for the progressive encoder,
/// whose scans each visit every block.
fn plane_zigzags(plane: &PlaneView, table: &[u16; 64]) -> Vec<[i32; 64]> {
    let blocks = (plane.width as usize).div_ceil(8) * (plane.height as usize).div_ceil(8);
    let mut zigzags = Vec::with_capacity(blocks);
    plane.for_each_zigzag(table, |zz| zigzags.push(*zz));
    zigzags
}

/// Inverse of [`plane_zigzags`], for the progressive decoder.
fn plane_from_zigzags(
    zigzags: &[[i32; 64]],
    width: u32,
    height: u32,
    table: &[u16; 64],
) -> PlaneView {
    let mut plane = PlaneView::zeroed(width, height);
    for ((x0, y0), zz) in block_origins(width, height).zip(zigzags) {
        plane.put_zigzag(x0, y0, zz, table);
    }
    plane
}

fn encode_plane(writer: &mut BitWriter, plane: &PlaneView, table: &[u16; 64]) {
    // Entropy coding is serial: the differential DC chain and the bit
    // stream itself run in block order.
    let mut prev_dc = 0i32;
    plane.for_each_zigzag(table, |zz| entropy::encode_block(writer, zz, &mut prev_dc));
}

fn decode_plane(
    reader: &mut BitReader<'_>,
    width: u32,
    height: u32,
    table: &[u16; 64],
) -> Result<PlaneView> {
    let blocks_x = (width as usize).div_ceil(8);
    let blocks_y = (height as usize).div_ceil(8);
    // A corrupted header can claim absurd dimensions; every encoded block
    // costs at least 2 bits (DC code + end-of-block), so bound the claimed
    // block count by the payload before allocating anything.
    let blocks = blocks_x
        .checked_mul(blocks_y)
        .ok_or(ImageError::CorruptBitstream {
            detail: "dimension overflow",
        })?;
    if blocks > reader.bits_remaining() / 2 + 1 {
        return Err(ImageError::CorruptBitstream {
            detail: "dimensions exceed payload capacity",
        });
    }
    (width as usize)
        .checked_mul(height as usize)
        .ok_or(ImageError::CorruptBitstream {
            detail: "dimension overflow",
        })?;
    // Entropy decoding is serial (differential DC over one bit stream);
    // each block is reconstructed as soon as it is decoded.
    let mut plane = PlaneView::zeroed(width, height);
    let mut prev_dc = 0i32;
    for (x0, y0) in block_origins(width, height) {
        let zz = entropy::decode_block(reader, &mut prev_dc)?;
        plane.put_zigzag(x0, y0, &zz, table);
    }
    Ok(plane)
}

fn split_ycbcr(img: &RgbImage) -> (PlaneView, PlaneView, PlaneView) {
    let (w, h) = (img.width() as usize, img.height() as usize);
    let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
    let mut y_data = vec![0.0; w * h];
    let mut cb_data = vec![0.0f32; cw * ch];
    let mut cr_data = vec![0.0f32; cw * ch];
    // One pass over each pair of rows (the last may be alone): each pixel's
    // luma lands in the Y plane, and its chroma is summed into its 2x2
    // neighbourhood's sample (clipped at the right and bottom edges) in
    // row-major order; the sums then become means, one 4:2:0 sample each.
    let chroma_rows = cb_data
        .chunks_exact_mut(cw)
        .zip(cr_data.chunks_exact_mut(cw));
    let pixel_rows = img.pixels().chunks(2 * w).zip(y_data.chunks_mut(2 * w));
    for ((cb_row, cr_row), (src, lum)) in chroma_rows.zip(pixel_rows) {
        for (src_row, lum_row) in src.chunks_exact(w).zip(lum.chunks_exact_mut(w)) {
            let pairs = src_row.chunks(2).zip(lum_row.chunks_mut(2));
            for ((pair, lum_pair), (cb, cr)) in pairs.zip(cb_row.iter_mut().zip(cr_row.iter_mut()))
            {
                for (p, l) in pair.iter().zip(lum_pair) {
                    let (y, pcb, pcr) = p.to_ycbcr();
                    *l = y;
                    *cb += pcb;
                    *cr += pcr;
                }
            }
        }
        let rows = (src.len() / w) as f32;
        for (x, (cb, cr)) in cb_row.iter_mut().zip(cr_row.iter_mut()).enumerate() {
            let n = rows * (w - 2 * x).min(2) as f32;
            *cb /= n;
            *cr /= n;
        }
    }
    let plane = |width: usize, height: usize, data| PlaneView {
        width: width as u32,
        height: height as u32,
        data,
    };
    (
        plane(w, h, y_data),
        plane(cw, ch, cb_data),
        plane(cw, ch, cr_data),
    )
}

/// Inverse of [`split_ycbcr`]: pixel `(x, y)` takes chroma sample
/// `(x / 2, y / 2)`.
fn merge_ycbcr(y_plane: &PlaneView, cb_plane: &PlaneView, cr_plane: &PlaneView) -> RgbImage {
    let (w, cw) = (y_plane.width as usize, cb_plane.width as usize);
    debug_assert_eq!(cw, w.div_ceil(2));
    debug_assert_eq!(cr_plane.width, cb_plane.width);
    let mut data = vec![Rgb::default(); y_plane.data.len()];
    let chroma_rows = cb_plane
        .data
        .chunks_exact(cw)
        .zip(cr_plane.data.chunks_exact(cw));
    let pixel_rows = data.chunks_mut(2 * w).zip(y_plane.data.chunks(2 * w));
    for ((cb_row, cr_row), (out, lum)) in chroma_rows.zip(pixel_rows) {
        for (out_row, lum_row) in out.chunks_exact_mut(w).zip(lum.chunks_exact(w)) {
            let pairs = out_row.chunks_mut(2).zip(lum_row.chunks(2));
            for ((out_pair, lum_pair), (&cb, &cr)) in pairs.zip(cb_row.iter().zip(cr_row)) {
                for (o, &l) in out_pair.iter_mut().zip(lum_pair) {
                    *o = Rgb::from_ycbcr(l, cb, cr);
                }
            }
        }
    }
    RgbImage {
        width: y_plane.width,
        height: y_plane.height,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn textured(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let v = 128.0
                + 60.0 * ((x as f64) * 0.3).sin()
                + 40.0 * ((y as f64) * 0.2).cos()
                + ((x * y) % 13) as f64;
            v.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn gray_roundtrip_high_quality_is_faithful() {
        let img = textured(64, 48);
        let bytes = encode_gray(&img, 95).unwrap();
        let back = decode_gray(&bytes).unwrap();
        assert_eq!(back.dimensions(), img.dimensions());
        assert!(metrics::psnr(&img, &back).unwrap() > 35.0);
    }

    #[test]
    fn lower_quality_means_smaller_files_and_lower_ssim() {
        let img = textured(96, 96);
        let mut last_size = usize::MAX;
        let mut last_ssim = 1.1f64;
        for q in [95u8, 60, 25, 5] {
            let bytes = encode_gray(&img, q).unwrap();
            let back = decode_gray(&bytes).unwrap();
            let s = metrics::ssim(&img, &back).unwrap();
            assert!(
                bytes.len() <= last_size,
                "size should not grow as quality drops (q={q})"
            );
            assert!(
                s <= last_ssim + 0.02,
                "ssim should not improve as quality drops (q={q})"
            );
            last_size = bytes.len();
            last_ssim = s;
        }
    }

    #[test]
    fn non_multiple_of_eight_dimensions_roundtrip() {
        let img = textured(37, 21);
        let back = decode_gray(&encode_gray(&img, 80).unwrap()).unwrap();
        assert_eq!(back.dimensions(), (37, 21));
    }

    #[test]
    fn quality_out_of_range_is_rejected() {
        let img = textured(8, 8);
        assert!(encode_gray(&img, 0).is_err());
        assert!(encode_gray(&img, 101).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_gray(&[]).is_err());
        assert!(decode_gray(&[1, 2, 3]).is_err());
        let mut valid = encode_gray(&textured(16, 16), 50).unwrap();
        valid[0] = 0x00; // clobber magic
        assert!(decode_gray(&valid).is_err());
    }

    #[test]
    fn decode_rejects_wrong_magic_type() {
        let gray = encode_gray(&textured(16, 16), 50).unwrap();
        assert!(decode_rgb(&gray).is_err());
    }

    #[test]
    fn rgb_roundtrip_is_reasonable() {
        let img = RgbImage::from_fn(48, 40, |x, y| {
            Rgb::new(
                ((x * 5) % 256) as u8,
                ((y * 7) % 256) as u8,
                (128 + ((x + y) % 64)) as u8,
            )
        });
        let bytes = encode_rgb(&img, 85).unwrap();
        let back = decode_rgb(&bytes).unwrap();
        assert_eq!(back.dimensions(), img.dimensions());
        // Compare luminance via SSIM.
        let s = metrics::ssim(&img.to_gray(), &back.to_gray()).unwrap();
        assert!(s > 0.85, "color roundtrip ssim {s}");
    }

    #[test]
    fn encoded_color_is_smaller_than_raw_at_moderate_quality() {
        let img = RgbImage::from_fn(128, 128, |x, y| {
            let v =
                (128.0 + 50.0 * ((x as f64) * 0.1).sin() + 30.0 * ((y as f64) * 0.13).cos()) as u8;
            Rgb::new(v, v / 2 + 30, 255 - v)
        });
        let size = encoded_rgb_size(&img, 75).unwrap();
        assert!(
            size < img.raw_byte_size() / 4,
            "{size} vs raw {}",
            img.raw_byte_size()
        );
    }

    #[test]
    fn absurd_header_dimensions_are_rejected_before_allocation() {
        // A forged header claiming a gigapixel image with a tiny payload
        // must fail cleanly instead of attempting the allocation.
        let mut forged = Vec::new();
        forged.push(0xB1); // gray magic
        forged.extend_from_slice(&2_000_000_000u32.to_le_bytes());
        forged.extend_from_slice(&2_000_000_000u32.to_le_bytes());
        forged.push(50);
        forged.extend_from_slice(&[0xAA; 16]);
        assert!(decode_gray(&forged).is_err());
        forged[0] = 0xB3; // color magic
        assert!(decode_rgb(&forged).is_err());
    }

    #[test]
    fn truncated_payload_fails_cleanly() {
        let bytes = encode_gray(&textured(32, 32), 70).unwrap();
        let cut = &bytes[..bytes.len() / 2];
        assert!(decode_gray(cut).is_err());
    }
}
