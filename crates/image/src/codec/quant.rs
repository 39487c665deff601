//! Quantization tables and quality scaling.
//!
//! Base tables are the JPEG Annex K luminance/chrominance tables; the quality
//! parameter scales them with the familiar libjpeg formula, so our quality
//! axis behaves like everyone else's.

use super::zigzag::ZIGZAG;
use crate::{round_i32, ImageError, Result};

/// JPEG Annex K luminance quantization table (quality 50 reference).
const BASE_LUMINANCE: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, //
    12, 12, 14, 19, 26, 58, 60, 55, //
    14, 13, 16, 24, 40, 57, 69, 56, //
    14, 17, 22, 29, 51, 87, 80, 62, //
    18, 22, 37, 56, 68, 109, 103, 77, //
    24, 35, 55, 64, 81, 104, 113, 92, //
    49, 64, 78, 87, 103, 121, 120, 101, //
    72, 92, 95, 98, 112, 100, 103, 99,
];

/// JPEG Annex K chrominance quantization table.
const BASE_CHROMINANCE: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, //
    18, 21, 26, 66, 99, 99, 99, 99, //
    24, 26, 56, 99, 99, 99, 99, 99, //
    47, 66, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99, //
    99, 99, 99, 99, 99, 99, 99, 99,
];

fn scaled(base: &[u16; 64], quality: u8) -> Result<[u16; 64]> {
    if !(1..=100).contains(&quality) {
        return Err(ImageError::InvalidParameter {
            name: "quality",
            value: quality as f64,
        });
    }
    // libjpeg scaling: q<50 -> 5000/q, q>=50 -> 200 - 2q.
    let scale: u32 = if quality < 50 {
        5000 / quality as u32
    } else {
        200 - 2 * quality as u32
    };
    let mut out = [0u16; 64];
    for (o, &b) in out.iter_mut().zip(base.iter()) {
        let v = (b as u32 * scale + 50) / 100;
        *o = v.clamp(1, 255) as u16;
    }
    Ok(out)
}

/// Quality-scaled luminance table.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside `1..=100`.
pub fn luminance_table(quality: u8) -> Result<[u16; 64]> {
    scaled(&BASE_LUMINANCE, quality)
}

/// Quality-scaled chrominance table.
///
/// # Errors
///
/// Returns [`ImageError::InvalidParameter`] if `quality` is outside `1..=100`.
pub fn chrominance_table(quality: u8) -> Result<[u16; 64]> {
    scaled(&BASE_CHROMINANCE, quality)
}

/// Quantizes a block of DCT coefficients (round-to-nearest division).
pub fn quantize(coeffs: &[f32; 64], table: &[u16; 64], out: &mut [i32; 64]) {
    for i in 0..64 {
        out[i] = round_i32(coeffs[i] / table[i] as f32);
    }
}

/// [`quantize`] writing the block straight into zigzag scan order.
pub(crate) fn quantize_zigzag(coeffs: &[f32; 64], table: &[u16; 64], zz: &mut [i32; 64]) {
    for (z, &i) in zz.iter_mut().zip(&ZIGZAG) {
        *z = round_i32(coeffs[i] / table[i] as f32);
    }
}

/// Reconstructs approximate coefficients from quantized values.
pub fn dequantize(quantized: &[i32; 64], table: &[u16; 64], out: &mut [f32; 64]) {
    for i in 0..64 {
        out[i] = quantized[i] as f32 * table[i] as f32;
    }
}

/// [`dequantize`] reading the block straight from zigzag scan order.
pub(crate) fn dequantize_zigzag(zz: &[i32; 64], table: &[u16; 64], out: &mut [f32; 64]) {
    for (&z, &i) in zz.iter().zip(&ZIGZAG) {
        out[i] = z as f32 * table[i] as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_fifty_is_base_table() {
        assert_eq!(luminance_table(50).unwrap(), BASE_LUMINANCE);
        assert_eq!(chrominance_table(50).unwrap(), BASE_CHROMINANCE);
    }

    #[test]
    fn higher_quality_gives_finer_steps() {
        let q30 = luminance_table(30).unwrap();
        let q80 = luminance_table(80).unwrap();
        for i in 0..64 {
            assert!(q80[i] <= q30[i], "entry {i}: {} vs {}", q80[i], q30[i]);
        }
    }

    #[test]
    fn entries_never_drop_below_one() {
        let q100 = luminance_table(100).unwrap();
        assert!(q100.iter().all(|&v| v >= 1));
    }

    #[test]
    fn invalid_quality_rejected() {
        assert!(luminance_table(0).is_err());
        assert!(luminance_table(101).is_err());
        assert!(chrominance_table(0).is_err());
    }

    #[test]
    fn quantize_dequantize_bounds_error() {
        let table = luminance_table(50).unwrap();
        let mut coeffs = [0f32; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = (i as f32 - 32.0) * 13.7;
        }
        let mut q = [0i32; 64];
        let mut back = [0f32; 64];
        quantize(&coeffs, &table, &mut q);
        dequantize(&q, &table, &mut back);
        for i in 0..64 {
            // Error is at most half a quantization step.
            assert!((coeffs[i] - back[i]).abs() <= table[i] as f32 / 2.0 + 1e-3);
        }
    }
}
