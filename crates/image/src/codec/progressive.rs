//! Progressive (spectral-selection) variant of the block-DCT codec.
//!
//! The baseline codec in [`super`] interleaves every coefficient of every
//! block, so a truncated bitstream decodes to nothing. This module reorders
//! the *same* quantized coefficients into JPEG-style spectral-selection
//! scans: a DC scan first, then low→high AC zigzag bands across all blocks
//! ([`SCAN_BANDS`]). Any prefix that contains the scan directory and at
//! least the complete DC scan reconstructs a usable image; each further
//! complete scan sharpens it. [`decode_partial`] returns the best image a
//! prefix supports together with a [`ScanProgress`] saying how far fidelity
//! got — the primitive the resilient upload path's salvage ladder is built
//! on.
//!
//! # Bitstream layout
//!
//! ```text
//! [10-byte header: magic, width u32le, height u32le, quality]
//! [n_scans: u8]
//! [n_scans × scan byte length: u32le]   <- the scan directory
//! [scan 0 bytes] [scan 1 bytes] ...     <- each scan byte-aligned
//! ```
//!
//! Every scan is self-contained: its DC predictors reset per plane and its
//! run-length codes never cross the band boundary, so scans can be applied
//! independently and a cut mid-scan loses only that scan's refinement.
//!
//! # Examples
//!
//! ```
//! use bees_image::{GrayImage, codec::progressive};
//!
//! # fn main() -> Result<(), bees_image::ImageError> {
//! let img = GrayImage::from_fn(64, 64, |x, y| ((x * 3 + y * 7) % 256) as u8);
//! let bytes = progressive::encode_progressive_gray(&img, 70)?;
//! // Full stream: all scans applied.
//! let (full, progress) = progressive::decode_partial(&bytes)?;
//! assert!(progress.is_complete());
//! assert_eq!(full.dimensions(), img.dimensions());
//! // A truncated stream still decodes, at reduced fidelity.
//! let (partial, progress) = progressive::decode_partial(&bytes[..bytes.len() / 2])?;
//! assert!(progress.scans_complete < progress.scans_total);
//! assert_eq!(partial.dimensions(), img.dimensions());
//! # Ok(())
//! # }
//! ```

use super::bits::{BitReader, BitWriter};
use super::{
    entropy, merge_ycbcr, plane_from_zigzags, plane_zigzags, quant, read_header, split_ycbcr,
    write_header, PlaneView, HEADER_LEN,
};
use crate::{GrayImage, ImageError, Result, RgbImage};

/// Magic byte marking a progressive grayscale bitstream.
const MAGIC_PROGRESSIVE_GRAY: u8 = 0xB5;
/// Magic byte marking a progressive YCbCr 4:2:0 bitstream.
const MAGIC_PROGRESSIVE_COLOR: u8 = 0xB7;

/// Zigzag coefficient bands of the spectral-selection scans, in stream
/// order: the DC scan `[0, 1)`, then four AC bands of increasing spatial
/// frequency. Together they cover every coefficient exactly once.
pub const SCAN_BANDS: [(usize, usize); 5] = [(0, 1), (1, 6), (6, 15), (15, 28), (28, 64)];

/// How far through the scan sequence a [`decode_partial`] call got.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanProgress {
    /// Complete scans the prefix contained (and the decode applied).
    pub scans_complete: usize,
    /// Scans a complete stream carries ([`SCAN_BANDS`] length).
    pub scans_total: usize,
    /// Bytes of the prefix actually consumed: header, scan directory, and
    /// every complete scan. Trailing bytes of an incomplete scan are
    /// ignored.
    pub bytes_consumed: usize,
}

impl ScanProgress {
    /// True when every scan was applied — the decode is full-fidelity.
    pub fn is_complete(&self) -> bool {
        self.scans_complete == self.scans_total
    }
}

/// The image a [`decode_partial`] call reconstructed.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedImage {
    /// From a grayscale stream.
    Gray(GrayImage),
    /// From a YCbCr 4:2:0 color stream.
    Rgb(RgbImage),
}

impl DecodedImage {
    /// Luminance view of the decoded image (what SSIM scoring compares).
    pub fn to_gray(&self) -> GrayImage {
        match self {
            DecodedImage::Gray(g) => g.clone(),
            DecodedImage::Rgb(c) => c.to_gray(),
        }
    }

    /// Image dimensions in pixels.
    pub fn dimensions(&self) -> (u32, u32) {
        match self {
            DecodedImage::Gray(g) => g.dimensions(),
            DecodedImage::Rgb(c) => c.dimensions(),
        }
    }
}

/// Encodes a grayscale image as a progressive bitstream at the given
/// quality (1..=100). Same transform and quantization as
/// [`encode_gray`](super::encode_gray); only the coefficient order differs.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside
/// `1..=100`.
pub fn encode_progressive_gray(img: &GrayImage, quality: u8) -> Result<Vec<u8>> {
    let table = quant::luminance_table(quality)?;
    let zigzags = plane_zigzags(&PlaneView::from_gray(img), &table);
    Ok(encode_scans(
        MAGIC_PROGRESSIVE_GRAY,
        img.width(),
        img.height(),
        quality,
        &[&zigzags],
    ))
}

/// Encodes an RGB image as a progressive bitstream at the given quality,
/// with the same 4:2:0 chroma subsampling as
/// [`encode_rgb`](super::encode_rgb). Each scan carries its band for the Y,
/// Cb, and Cr planes in that order, so even the DC-only prefix decodes to a
/// (blocky) color image.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside
/// `1..=100`.
pub fn encode_progressive_rgb(img: &RgbImage, quality: u8) -> Result<Vec<u8>> {
    let lum = quant::luminance_table(quality)?;
    let chrom = quant::chrominance_table(quality)?;
    let (y_plane, cb_plane, cr_plane) = split_ycbcr(img);
    let y_zz = plane_zigzags(&y_plane, &lum);
    let cb_zz = plane_zigzags(&cb_plane, &chrom);
    let cr_zz = plane_zigzags(&cr_plane, &chrom);
    Ok(encode_scans(
        MAGIC_PROGRESSIVE_COLOR,
        img.width(),
        img.height(),
        quality,
        &[&y_zz, &cb_zz, &cr_zz],
    ))
}

/// Decodes the best image any prefix of a progressive bitstream supports.
///
/// Applies every *complete* scan the prefix contains and ignores the bytes
/// of a scan the cut landed in. Works on the full stream too, where it is
/// the (only) full-fidelity decoder for this format.
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] if the prefix is too short to
/// contain the header, scan directory, and complete DC scan, or if any
/// contained scan is malformed.
pub fn decode_partial(bytes: &[u8]) -> Result<(DecodedImage, ScanProgress)> {
    let (magic, width, height, quality, payload) = read_header(bytes)?;
    let color = match magic {
        MAGIC_PROGRESSIVE_GRAY => false,
        MAGIC_PROGRESSIVE_COLOR => true,
        _ => {
            return Err(ImageError::CorruptBitstream {
                detail: "not a progressive bitstream",
            })
        }
    };
    if payload.is_empty() {
        return Err(ImageError::CorruptBitstream {
            detail: "scan directory truncated",
        });
    }
    let n_scans = payload[0] as usize;
    if n_scans != SCAN_BANDS.len() {
        return Err(ImageError::CorruptBitstream {
            detail: "unexpected scan count",
        });
    }
    let dir_end = 1 + 4 * n_scans;
    if payload.len() < dir_end {
        return Err(ImageError::CorruptBitstream {
            detail: "scan directory truncated",
        });
    }
    let lens: Vec<usize> = (0..n_scans)
        .map(|s| {
            let at = 1 + 4 * s;
            u32::from_le_bytes(payload[at..at + 4].try_into().expect("slice is 4 bytes")) as usize
        })
        .collect();

    // How many complete scans does the prefix hold?
    let avail = payload.len() - dir_end;
    let mut scans_complete = 0usize;
    let mut used = 0usize;
    for &len in &lens {
        match used.checked_add(len) {
            Some(end) if end <= avail => {
                used = end;
                scans_complete += 1;
            }
            _ => break,
        }
    }
    if scans_complete == 0 {
        return Err(ImageError::CorruptBitstream {
            detail: "prefix ends before the DC scan completes",
        });
    }

    // A forged header can claim absurd dimensions; the DC scan spends at
    // least one bit per block of every plane, and `lens[0]` is bounded by
    // the bytes actually present, so bound the block count before any
    // allocation.
    let y_blocks = checked_blocks(width, height)?;
    let (cw, ch) = (width.div_ceil(2).max(1), height.div_ceil(2).max(1));
    let c_blocks = if color { checked_blocks(cw, ch)? } else { 0 };
    let total_blocks = y_blocks
        .checked_add(c_blocks.checked_mul(2).ok_or(OVERFLOW)?)
        .ok_or(OVERFLOW)?;
    if total_blocks > lens[0].saturating_mul(8) + 1 {
        return Err(ImageError::CorruptBitstream {
            detail: "dimensions exceed payload capacity",
        });
    }

    let lum = quant::luminance_table(quality)?;
    let mut y_zz = vec![[0i32; 64]; y_blocks];
    let progress = ScanProgress {
        scans_complete,
        scans_total: n_scans,
        bytes_consumed: 10 + dir_end + used,
    };
    let image = if color {
        let chrom = quant::chrominance_table(quality)?;
        let mut cb_zz = vec![[0i32; 64]; c_blocks];
        let mut cr_zz = vec![[0i32; 64]; c_blocks];
        apply_scans(
            &payload[dir_end..],
            &lens[..scans_complete],
            &mut [&mut y_zz, &mut cb_zz, &mut cr_zz],
        )?;
        let y_plane = plane_from_zigzags(&y_zz, width, height, &lum);
        let cb_plane = plane_from_zigzags(&cb_zz, cw, ch, &chrom);
        let cr_plane = plane_from_zigzags(&cr_zz, cw, ch, &chrom);
        DecodedImage::Rgb(merge_ycbcr(&y_plane, &cb_plane, &cr_plane))
    } else {
        apply_scans(
            &payload[dir_end..],
            &lens[..scans_complete],
            &mut [&mut y_zz],
        )?;
        DecodedImage::Gray(plane_from_zigzags(&y_zz, width, height, &lum).into_gray())
    };
    Ok((image, progress))
}

const OVERFLOW: ImageError = ImageError::CorruptBitstream {
    detail: "dimension overflow",
};

/// Blocks an `width × height` plane splits into, with overflow checks fed
/// by forged headers.
fn checked_blocks(width: u32, height: u32) -> Result<usize> {
    (width as usize)
        .div_ceil(8)
        .checked_mul((height as usize).div_ceil(8))
        .ok_or(OVERFLOW)
}

/// Writes the header, the scan directory and each [`SCAN_BANDS`] band
/// across every plane (in plane order) as its own byte-aligned segment, all
/// in one vector. It starts with room for a byte per coefficient, as
/// `baseline_writer`'s does per sample; the directory is written zeroed and
/// patched once every scan's length is known.
fn encode_scans(
    magic: u8,
    width: u32,
    height: u32,
    quality: u8,
    planes: &[&[[i32; 64]]],
) -> Vec<u8> {
    let coefficients: usize = planes.iter().map(|plane| 64 * plane.len()).sum();
    let dir_at = HEADER_LEN + 1;
    let body_at = dir_at + 4 * SCAN_BANDS.len();
    let mut out = Vec::with_capacity(body_at + coefficients);
    write_header(&mut out, magic, width, height, quality);
    out.push(SCAN_BANDS.len() as u8);
    out.resize(body_at, 0);
    for (s, &(lo, hi)) in SCAN_BANDS.iter().enumerate() {
        let start = out.len();
        // Each scan starts on a byte boundary: `into_bytes` pads the one
        // before it.
        let mut writer = BitWriter::with_prefix(out);
        for plane in planes {
            if lo == 0 {
                // DC scan: the differential predictor resets per plane
                // per scan, keeping every scan self-contained.
                let mut prev_dc = 0i32;
                for zz in *plane {
                    entropy::encode_dc(&mut writer, zz[0], &mut prev_dc);
                }
            } else {
                for zz in *plane {
                    entropy::encode_band(&mut writer, zz, lo, hi);
                }
            }
        }
        out = writer.into_bytes();
        let len = u32::try_from(out.len() - start).expect("scan segments are far below 4 GiB");
        out[dir_at + 4 * s..dir_at + 4 * (s + 1)].copy_from_slice(&len.to_le_bytes());
    }
    out.shrink_to_fit();
    out
}

/// Applies the first `lens.len()` scans from `body` (the bytes after the
/// scan directory) onto the planes' zigzag coefficients.
fn apply_scans(body: &[u8], lens: &[usize], planes: &mut [&mut [[i32; 64]]]) -> Result<()> {
    let mut offset = 0usize;
    for (s, &len) in lens.iter().enumerate() {
        let (lo, hi) = SCAN_BANDS[s];
        let mut reader = BitReader::new(&body[offset..offset + len]);
        for plane in planes.iter_mut() {
            if lo == 0 {
                let mut prev_dc = 0i32;
                for zz in plane.iter_mut() {
                    zz[0] = entropy::decode_dc(&mut reader, &mut prev_dc)?;
                }
            } else {
                for zz in plane.iter_mut() {
                    entropy::decode_band(&mut reader, zz, lo, hi)?;
                }
            }
        }
        offset += len;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use crate::Rgb;

    fn textured(w: u32, h: u32) -> GrayImage {
        GrayImage::from_fn(w, h, |x, y| {
            let v = 128.0
                + 60.0 * ((x as f64) * 0.3).sin()
                + 40.0 * ((y as f64) * 0.2).cos()
                + ((x * y) % 13) as f64;
            v.clamp(0.0, 255.0) as u8
        })
    }

    fn colorful(w: u32, h: u32) -> RgbImage {
        RgbImage::from_fn(w, h, |x, y| {
            Rgb::new(
                ((x * 5) % 256) as u8,
                ((y * 7) % 256) as u8,
                (128 + ((x + y) % 64)) as u8,
            )
        })
    }

    #[test]
    fn full_progressive_stream_matches_baseline_fidelity() {
        // Same coefficients, different order: the complete progressive
        // stream must decode to exactly the baseline decode.
        let img = textured(64, 48);
        let baseline = super::super::decode_gray(&super::super::encode_gray(&img, 70).unwrap());
        let bytes = encode_progressive_gray(&img, 70).unwrap();
        let (decoded, progress) = decode_partial(&bytes).unwrap();
        assert!(progress.is_complete());
        assert_eq!(progress.bytes_consumed, bytes.len());
        assert_eq!(decoded.to_gray(), baseline.unwrap());
    }

    #[test]
    fn fidelity_is_monotone_in_scan_count() {
        let img = textured(96, 96);
        let bytes = encode_progressive_gray(&img, 80).unwrap();
        let (_, full) = decode_partial(&bytes).unwrap();
        assert_eq!(full.scans_total, SCAN_BANDS.len());
        let mut last_ssim = -1.0f64;
        let mut seen = 0;
        // Walk prefixes at every byte length; SSIM may only improve as more
        // scans complete.
        for cut in (0..=bytes.len()).step_by(64) {
            let Ok((img_cut, p)) = decode_partial(&bytes[..cut]) else {
                continue;
            };
            if p.scans_complete > seen {
                let s = metrics::ssim(&img, &img_cut.to_gray()).unwrap();
                assert!(
                    s + 1e-9 >= last_ssim,
                    "ssim regressed at {} scans: {s} < {last_ssim}",
                    p.scans_complete
                );
                last_ssim = s;
                seen = p.scans_complete;
            }
        }
        assert_eq!(seen, SCAN_BANDS.len(), "never saw the full stream");
    }

    #[test]
    fn dc_only_prefix_is_already_recognizable() {
        let img = textured(96, 96);
        let bytes = encode_progressive_gray(&img, 80).unwrap();
        // The shortest decodable prefix: header + directory + DC scan.
        let (dc_img, p) = decode_partial(&bytes[..dc_prefix_len(&bytes)]).unwrap();
        assert_eq!(p.scans_complete, 1);
        let s = metrics::ssim(&img, &dc_img.to_gray()).unwrap();
        assert!(s > 0.2, "DC-only ssim {s} should beat noise");
    }

    /// Byte length of header + directory + DC scan.
    fn dc_prefix_len(bytes: &[u8]) -> usize {
        let n_scans = bytes[10] as usize;
        let dc_len = u32::from_le_bytes(bytes[11..15].try_into().unwrap()) as usize;
        10 + 1 + 4 * n_scans + dc_len
    }

    #[test]
    fn every_prefix_decodes_or_errors_cleanly() {
        let img = textured(40, 24);
        let bytes = encode_progressive_gray(&img, 60).unwrap();
        let dc_end = dc_prefix_len(&bytes);
        for cut in 0..=bytes.len() {
            match decode_partial(&bytes[..cut]) {
                Ok((decoded, p)) => {
                    assert!(cut >= dc_end, "decoded from a pre-DC prefix of {cut} bytes");
                    assert_eq!(decoded.dimensions(), (40, 24));
                    assert!(p.scans_complete >= 1);
                    assert!(p.bytes_consumed <= cut);
                }
                Err(_) => {
                    assert!(cut < dc_end, "prefix of {cut} bytes should have decoded");
                }
            }
        }
    }

    #[test]
    fn color_roundtrip_and_partial_decode() {
        let img = colorful(48, 40);
        let bytes = encode_progressive_rgb(&img, 85).unwrap();
        let (full, p) = decode_partial(&bytes).unwrap();
        assert!(p.is_complete());
        assert_eq!(full.dimensions(), (48, 40));
        let s_full = metrics::ssim(&img.to_gray(), &full.to_gray()).unwrap();
        assert!(s_full > 0.85, "full color ssim {s_full}");
        // Cut off the last scan: still decodes, slightly softer.
        let (partial, p) = decode_partial(&bytes[..bytes.len() - 1]).unwrap();
        assert_eq!(p.scans_complete, SCAN_BANDS.len() - 1);
        let s_part = metrics::ssim(&img.to_gray(), &partial.to_gray()).unwrap();
        assert!(s_part <= s_full + 1e-9);
        assert!(s_part > 0.5, "four-scan color ssim {s_part}");
    }

    #[test]
    fn rejects_baseline_magic_and_garbage() {
        let img = textured(16, 16);
        let baseline = super::super::encode_gray(&img, 50).unwrap();
        assert!(decode_partial(&baseline).is_err());
        assert!(decode_partial(&[]).is_err());
        let mut forged = encode_progressive_gray(&img, 50).unwrap();
        forged[10] = 9; // claim a scan count the format does not have
        assert!(decode_partial(&forged).is_err());
    }

    #[test]
    fn forged_dimensions_are_rejected_before_allocation() {
        let img = textured(16, 16);
        let mut bytes = encode_progressive_gray(&img, 50).unwrap();
        bytes[1..5].copy_from_slice(&2_000_000_000u32.to_le_bytes());
        bytes[5..9].copy_from_slice(&2_000_000_000u32.to_le_bytes());
        assert!(decode_partial(&bytes).is_err());
    }

    #[test]
    fn scan_bands_tile_the_spectrum() {
        assert_eq!(SCAN_BANDS[0], (0, 1));
        for w in SCAN_BANDS.windows(2) {
            assert_eq!(w[0].1, w[1].0, "bands must be contiguous");
        }
        assert_eq!(SCAN_BANDS[SCAN_BANDS.len() - 1].1, 64);
    }

    #[test]
    fn progressive_overhead_is_small() {
        // The scan directory adds 21 bytes; band-splitting the run-length
        // codes costs a little entropy efficiency. Keep the total under 25%
        // over baseline so AIU's size accounting stays honest.
        let img = textured(128, 128);
        let base = super::super::encode_gray(&img, 70).unwrap().len();
        let prog = encode_progressive_gray(&img, 70).unwrap().len();
        assert!(
            (prog as f64) < (base as f64) * 1.25 + 64.0,
            "progressive {prog} vs baseline {base}"
        );
    }
}
