//! Entropy coding for quantized DCT blocks.
//!
//! DC coefficients are coded differentially; AC coefficients as
//! (zero-run, value) pairs — both with exponential-Golomb codes, a
//! self-terminating variable-length code that needs no stored Huffman
//! tables. This is the same structure JPEG uses (DPCM DC + run-length AC),
//! with exp-Golomb replacing canonical Huffman.

use super::bits::{BitReader, BitWriter, END_OF_INPUT};
use crate::{ImageError, Result};

/// Writes an unsigned exp-Golomb code for `v`.
pub fn write_ue(writer: &mut BitWriter, v: u64) {
    let x = v + 1;
    let bits = 64 - x.leading_zeros() as u8; // position of the highest set bit
    writer.write_bits(0, bits - 1); // prefix zeros
    writer.write_bits(x, bits);
}

/// Reads an unsigned exp-Golomb code.
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] on truncated input or an
/// implausibly long prefix.
pub fn read_ue(reader: &mut BitReader<'_>) -> Result<u64> {
    // A legal prefix is at most 62 zeros and the one bit ending it, so the
    // 64-bit window holds all of it; past the end of input it reads zeros.
    let window = reader.peek();
    let zeros = window.leading_zeros() as usize;
    let remaining = reader.bits_remaining();
    if zeros > 62 && remaining > 62 {
        reader.skip(63);
        return Err(ImageError::CorruptBitstream {
            detail: "exp-golomb prefix too long",
        });
    }
    // The code is the prefix, the one bit and `zeros` more bits.
    let len = 2 * zeros + 1;
    if len > remaining {
        reader.skip(remaining);
        return Err(END_OF_INPUT);
    }
    let code = if len <= 64 {
        reader.skip(len);
        window >> (64 - len)
    } else {
        reader.skip(zeros + 1);
        (1u64 << zeros) | reader.read_bits(zeros as u8)?
    };
    Ok(code - 1)
}

/// Writes a signed exp-Golomb code (zigzag mapping of the integers).
pub fn write_se(writer: &mut BitWriter, v: i64) {
    let u = if v > 0 {
        (v as u64) * 2 - 1
    } else {
        (-v as u64) * 2
    };
    write_ue(writer, u);
}

/// Reads a signed exp-Golomb code.
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] on truncated input.
pub fn read_se(reader: &mut BitReader<'_>) -> Result<i64> {
    let u = read_ue(reader)?;
    Ok(if u % 2 == 1 {
        u.div_ceil(2) as i64
    } else {
        -((u / 2) as i64)
    })
}

/// Encodes one zigzag-ordered quantized block. `prev_dc` carries the DC
/// predictor across blocks and is updated in place.
pub fn encode_block(writer: &mut BitWriter, zz: &[i32; 64], prev_dc: &mut i32) {
    encode_dc(writer, zz[0], prev_dc);
    encode_band(writer, zz, 1, 64);
}

/// Decodes one zigzag-ordered block. `prev_dc` carries the DC predictor and
/// is updated in place.
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated input or runs that
/// overflow the block.
pub fn decode_block(reader: &mut BitReader<'_>, prev_dc: &mut i32) -> Result<[i32; 64]> {
    let mut zz = [0i32; 64];
    zz[0] = decode_dc(reader, prev_dc)?;
    decode_ac(reader, &mut zz, 1, 64, "ac run past end of block")?;
    Ok(zz)
}

/// Encodes the DC coefficient of one block differentially against
/// `prev_dc` (updated in place). This is the whole of a progressive DC
/// scan's per-block contribution.
pub fn encode_dc(writer: &mut BitWriter, dc: i32, prev_dc: &mut i32) {
    write_se(writer, (dc - *prev_dc) as i64);
    *prev_dc = dc;
}

/// Decodes one differential DC coefficient against `prev_dc` (updated in
/// place).
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated input or a DC
/// value outside the plausible coefficient range.
pub fn decode_dc(reader: &mut BitReader<'_>, prev_dc: &mut i32) -> Result<i32> {
    let delta = read_se(reader)?;
    let dc = (*prev_dc as i64) + delta;
    if dc.abs() > i32::MAX as i64 / 2 {
        return Err(ImageError::CorruptBitstream {
            detail: "dc coefficient out of range",
        });
    }
    *prev_dc = dc as i32;
    Ok(dc as i32)
}

/// Encodes the `[lo, hi)` zigzag band of one block as run-length (run,
/// value) pairs confined to the band — the AC piece of a progressive
/// spectral-selection scan. `lo` must be at least 1 (DC is coded by
/// [`encode_dc`]) and `hi` at most 64.
pub fn encode_band(writer: &mut BitWriter, zz: &[i32; 64], lo: usize, hi: usize) {
    debug_assert!((1..hi).contains(&lo) && hi <= 64, "band out of range");
    let mut run = 0u64;
    for &c in &zz[lo..hi] {
        if c == 0 {
            run += 1;
        } else {
            writer.write_bit(true); // another (run, value) pair follows
            write_ue(writer, run);
            let mag = (c.unsigned_abs() as u64) - 1;
            writer.write_bit(c < 0);
            write_ue(writer, mag);
            run = 0;
        }
    }
    writer.write_bit(false); // end of band
}

/// Decodes one `[lo, hi)` zigzag band into `zz`, leaving coefficients
/// outside the band untouched. Inverse of [`encode_band`].
///
/// # Errors
///
/// Returns [`ImageError::CorruptBitstream`] for truncated input or runs
/// that overflow the band.
pub fn decode_band(
    reader: &mut BitReader<'_>,
    zz: &mut [i32; 64],
    lo: usize,
    hi: usize,
) -> Result<()> {
    debug_assert!((1..hi).contains(&lo) && hi <= 64, "band out of range");
    decode_ac(reader, zz, lo, hi, "ac run past end of band")
}

/// The (run, value) pairs of the `[lo, hi)` band, up to the end-of-band
/// bit; `past_end` names the error of a run that leaves the band.
fn decode_ac(
    reader: &mut BitReader<'_>,
    zz: &mut [i32; 64],
    lo: usize,
    hi: usize,
    past_end: &'static str,
) -> Result<()> {
    let mut pos = lo;
    while reader.read_bit()? {
        let run = read_ue(reader)? as usize;
        pos = pos.checked_add(run).ok_or(ImageError::CorruptBitstream {
            detail: "ac run overflow",
        })?;
        if pos >= hi {
            return Err(ImageError::CorruptBitstream { detail: past_end });
        }
        let negative = reader.read_bit()?;
        let mag = read_ue(reader)? + 1;
        if mag > i32::MAX as u64 {
            return Err(ImageError::CorruptBitstream {
                detail: "ac magnitude out of range",
            });
        }
        zz[pos] = if negative {
            -(mag as i64) as i32
        } else {
            mag as i32
        };
        pos += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_golomb_roundtrip_unsigned() {
        let mut w = BitWriter::new();
        let values = [0u64, 1, 2, 5, 17, 255, 100_000, u32::MAX as u64];
        for &v in &values {
            write_ue(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_ue(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn exp_golomb_roundtrip_signed() {
        let mut w = BitWriter::new();
        let values = [0i64, 1, -1, 2, -2, 100, -100, 65535, -65535];
        for &v in &values {
            write_se(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(read_se(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn small_values_get_short_codes() {
        let mut w = BitWriter::new();
        write_ue(&mut w, 0);
        assert_eq!(w.bit_len(), 1); // "1"
        write_ue(&mut w, 1);
        assert_eq!(w.bit_len(), 4); // "010"
    }

    #[test]
    fn block_roundtrip() {
        let mut zz = [0i32; 64];
        zz[0] = 37;
        zz[1] = -5;
        zz[4] = 2;
        zz[63] = -1;
        let mut w = BitWriter::new();
        let mut dc_enc = 10;
        encode_block(&mut w, &zz, &mut dc_enc);
        assert_eq!(dc_enc, 37);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut dc_dec = 10;
        let back = decode_block(&mut r, &mut dc_dec).unwrap();
        assert_eq!(back, zz);
        assert_eq!(dc_dec, 37);
    }

    #[test]
    fn multi_block_dc_prediction_chains() {
        let mut blocks = Vec::new();
        for k in 0..5 {
            let mut zz = [0i32; 64];
            zz[0] = 100 - 30 * k;
            zz[2] = k;
            blocks.push(zz);
        }
        let mut w = BitWriter::new();
        let mut dc = 0;
        for b in &blocks {
            encode_block(&mut w, b, &mut dc);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut dc = 0;
        for b in &blocks {
            assert_eq!(&decode_block(&mut r, &mut dc).unwrap(), b);
        }
    }

    #[test]
    fn all_zero_block_is_tiny() {
        let zz = [0i32; 64];
        let mut w = BitWriter::new();
        let mut dc = 0;
        encode_block(&mut w, &zz, &mut dc);
        assert!(w.bit_len() <= 2); // DC delta "1" + EOB "0"
    }

    #[test]
    fn band_split_reassembles_the_full_block() {
        // Coding a block as DC + three disjoint AC bands must reproduce
        // exactly what whole-block coding would.
        let mut zz = [0i32; 64];
        zz[0] = 42;
        zz[1] = -3;
        zz[5] = 7;
        zz[6] = 1;
        zz[30] = -2;
        zz[63] = 9;
        let bands = [(1usize, 6usize), (6, 32), (32, 64)];
        let mut segments = Vec::new();
        let mut w = BitWriter::new();
        let mut dc = 0;
        encode_dc(&mut w, zz[0], &mut dc);
        segments.push(w.into_bytes());
        for &(lo, hi) in &bands {
            let mut w = BitWriter::new();
            encode_band(&mut w, &zz, lo, hi);
            segments.push(w.into_bytes());
        }
        let mut back = [0i32; 64];
        let mut dc = 0;
        back[0] = decode_dc(&mut BitReader::new(&segments[0]), &mut dc).unwrap();
        for (seg, &(lo, hi)) in segments[1..].iter().zip(&bands) {
            decode_band(&mut BitReader::new(seg), &mut back, lo, hi).unwrap();
        }
        assert_eq!(back, zz);
    }

    #[test]
    fn band_run_cannot_escape_the_band() {
        // A run that would place a coefficient at or past `hi` is corrupt.
        let mut zz = [0i32; 64];
        zz[10] = 5;
        let mut w = BitWriter::new();
        encode_band(&mut w, &zz, 1, 16);
        let bytes = w.into_bytes();
        let mut narrow = [0i32; 64];
        let err = decode_band(&mut BitReader::new(&bytes), &mut narrow, 1, 8);
        assert!(err.is_err(), "run past the band must be detected");
    }

    #[test]
    fn truncated_band_errors_not_panics() {
        let mut zz = [0i32; 64];
        zz[2] = -9;
        zz[7] = 3;
        let mut w = BitWriter::new();
        encode_band(&mut w, &zz, 1, 16);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len().saturating_sub(1) {
            let mut out = [0i32; 64];
            let _ = decode_band(&mut BitReader::new(&bytes[..cut]), &mut out, 1, 16);
        }
    }

    #[test]
    fn truncated_block_errors() {
        let mut zz = [0i32; 64];
        zz[0] = 4;
        zz[10] = 9;
        let mut w = BitWriter::new();
        let mut dc = 0;
        encode_block(&mut w, &zz, &mut dc);
        let bytes = w.into_bytes();
        // Cut mid-stream: decoding should fail, not panic, for all prefixes.
        for cut in 0..bytes.len().saturating_sub(1) {
            let mut r = BitReader::new(&bytes[..cut]);
            let mut dc = 0;
            let _ = decode_block(&mut r, &mut dc); // must not panic
        }
    }
}
