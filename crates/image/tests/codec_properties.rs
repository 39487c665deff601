//! Property tests of the image substrate: codec round-trips, resize
//! bounds, bit-level I/O, and entropy-coding invariants.
//!
//! The word-wide `BitWriter` and windowed `BitReader` are checked against
//! the bit-at-a-time writer, reader and entropy decoders kept at the end of
//! this file: same bytes, and the same result and reader position for every
//! read of every truncation, errors included.

use bees_image::codec::bits::{BitReader, BitWriter};
use bees_image::codec::{self, entropy, zigzag};
use bees_image::{resize, GrayImage, ImageError, Rgb, RgbImage};
use bees_rng::{check, ChaCha8Rng};

const CASES: u64 = 48;

/// A hashed-noise image of 1..=`max_w` by 1..=`max_h` pixels.
fn arb_gray(rng: &mut ChaCha8Rng, max_w: u32, max_h: u32) -> GrayImage {
    let w = rng.gen_range(1..=max_w);
    let h = rng.gen_range(1..=max_h);
    let seed: u64 = rng.gen();
    GrayImage::from_fn(w, h, |x, y| {
        let v = seed
            .wrapping_add(((x as u64) << 24) ^ ((y as u64) << 8))
            .wrapping_mul(0x2545F4914F6CDD1D);
        (v >> 48) as u8
    })
}

/// 64 coefficients drawn by `draw`.
fn arb_block(rng: &mut ChaCha8Rng, mut draw: impl FnMut(&mut ChaCha8Rng) -> i32) -> [i32; 64] {
    let mut block = [0i32; 64];
    for c in &mut block {
        *c = draw(rng);
    }
    block
}

#[test]
fn gray_codec_roundtrips_any_shape() {
    check(CASES, |rng| {
        let img = arb_gray(rng, 40, 40);
        let q = rng.gen_range(1u8..=100);
        let encoded = codec::encode_gray(&img, q).unwrap();
        let decoded = codec::decode_gray(&encoded).unwrap();
        assert_eq!(decoded.dimensions(), img.dimensions());
    });
}

#[test]
fn rgb_codec_roundtrips_any_shape() {
    check(CASES, |rng| {
        let w = rng.gen_range(1u32..24);
        let h = rng.gen_range(1u32..24);
        let seed: u64 = rng.gen();
        let q = rng.gen_range(1u8..=100);
        let img = RgbImage::from_fn(w, h, |x, y| {
            let v = seed
                .wrapping_add((x * 31 + y * 7) as u64)
                .wrapping_mul(0x9E3779B97F4A7C15);
            Rgb::new((v >> 16) as u8, (v >> 32) as u8, (v >> 48) as u8)
        });
        let decoded = codec::decode_rgb(&codec::encode_rgb(&img, q).unwrap()).unwrap();
        assert_eq!(decoded.dimensions(), img.dimensions());
    });
}

#[test]
fn truncated_streams_error_not_panic() {
    check(CASES, |rng| {
        let img = arb_gray(rng, 24, 24);
        let cut_fraction = rng.gen_range(0.0..1.0);
        let encoded = codec::encode_gray(&img, 50).unwrap();
        let cut = (encoded.len() as f64 * cut_fraction) as usize;
        if cut < encoded.len() {
            let _ = codec::decode_gray(&encoded[..cut]); // Err or Ok, never panic
        }
    });
}

#[test]
fn bit_io_roundtrips_any_sequence() {
    check(CASES, |rng| {
        let values: Vec<(u64, u8)> = (0..rng.gen_range(0..50))
            .map(|_| (rng.gen(), rng.gen_range(1u8..=64)))
            .collect();
        let mut w = BitWriter::new();
        for &(v, n) in &values {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            w.write_bits(masked, n);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &(v, n) in &values {
            let masked = if n == 64 { v } else { v & ((1u64 << n) - 1) };
            assert_eq!(r.read_bits(n).unwrap(), masked);
        }
    });
}

#[test]
fn entropy_block_roundtrips_any_coefficients() {
    check(CASES, |rng| {
        let zz = arb_block(rng, |rng| rng.gen_range(-2048i32..2048));
        let prev = rng.gen_range(-1000i32..1000);
        let mut w = BitWriter::new();
        let mut dc_enc = prev;
        entropy::encode_block(&mut w, &zz, &mut dc_enc);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut dc_dec = prev;
        let back = entropy::decode_block(&mut r, &mut dc_dec).unwrap();
        assert_eq!(back, zz);
        assert_eq!(dc_dec, dc_enc);
    });
}

#[test]
fn zigzag_roundtrips_any_block() {
    check(CASES, |rng| {
        let block = arb_block(rng, |rng| rng.gen());
        assert_eq!(zigzag::from_zigzag(&zigzag::to_zigzag(&block)), block);
    });
}

#[test]
fn compress_bitmap_dimensions_shrink_by_proportion() {
    check(CASES, |rng| {
        let img = arb_gray(rng, 64, 64);
        let c = rng.gen_range(0.0..0.95);
        let out = resize::compress_bitmap(&img, c).unwrap();
        let expected_w = ((img.width() as f64 * (1.0 - c)).round() as u32).max(1);
        assert_eq!(out.width(), expected_w);
        assert!(out.width() <= img.width());
        assert!(out.height() <= img.height());
    });
}

#[test]
fn bilinear_resize_stays_within_value_range() {
    check(CASES, |rng| {
        let img = arb_gray(rng, 32, 32);
        let w = rng.gen_range(1u32..48);
        let h = rng.gen_range(1u32..48);
        let out = resize::resize_bilinear(&img, w, h).unwrap();
        let (mn, mx) = img
            .pixels()
            .iter()
            .fold((255u8, 0u8), |(a, b), &p| (a.min(p), b.max(p)));
        for &p in out.pixels() {
            assert!(p >= mn && p <= mx);
        }
    });
}

#[test]
fn ssim_is_bounded_and_reflexive() {
    check(CASES, |rng| {
        use bees_image::metrics::ssim;
        let img = arb_gray(rng, 24, 24);
        let s = ssim(&img, &img).unwrap();
        // f32 Gaussian-kernel normalization leaves ~1e-6 residue on tiny
        // constant images.
        assert!((s - 1.0).abs() < 1e-5, "ssim(self) = {s}");
    });
}

#[test]
fn bit_writer_matches_the_per_bit_reference() {
    check(CASES, |rng| {
        let mut w = BitWriter::new();
        let mut reference = RefWriter::default();
        for _ in 0..rng.gen_range(0..120) {
            // Set bits above the width must be ignored.
            let (value, count): (u64, u8) = (rng.gen(), rng.gen_range(0u8..=64));
            if rng.gen_range(0..4) == 0 {
                w.write_bit(value & 1 == 1);
                reference.write_bits(value & 1, 1);
            } else {
                w.write_bits(value, count);
                reference.write_bits(value, count);
            }
            assert_eq!(w.bit_len(), reference.bit_len());
            assert_eq!(w.clone().into_bytes(), reference.clone().into_bytes());
        }
    });
}

#[test]
fn bit_reader_matches_the_per_bit_reference_at_every_truncation() {
    check(CASES, |rng| {
        // Coded blocks and bands give the entropy decoders real streams;
        // random bytes give them every kind of garbage.
        let mut w = BitWriter::new();
        let mut dc = 0;
        for _ in 0..3 {
            entropy::encode_block(&mut w, &sparse_block(rng), &mut dc);
        }
        let blocks = w.into_bytes();
        let mut w = BitWriter::new();
        for &(lo, hi) in &BANDS {
            entropy::encode_band(&mut w, &sparse_block(rng), lo, hi);
        }
        let bands = w.into_bytes();
        let noise: Vec<u8> = (0..rng.gen_range(0..40)).map(|_| rng.gen()).collect();
        let any_op = |rng: &mut ChaCha8Rng| match rng.gen_range(0..5) {
            0 => Op::Bits(rng.gen_range(0u8..=64)),
            1 => Op::Bit,
            2 => Op::Ue,
            3 => Op::Block,
            _ => Op::Band(BANDS[rng.gen_range(0..BANDS.len())]),
        };
        let scripts = [
            (0..40).map(|_| Op::Bits(rng.gen_range(0u8..=64))).collect(),
            vec![Op::Ue; 60],
            vec![Op::Block; 8],
            BANDS
                .iter()
                .cycle()
                .take(12)
                .map(|&b| Op::Band(b))
                .collect(),
            (0..40).map(|_| any_op(rng)).collect::<Vec<_>>(),
        ];
        for stream in [&blocks, &bands, &noise] {
            for cut in 0..=stream.len() {
                for script in &scripts {
                    compare_script(&stream[..cut], script);
                }
            }
        }
    });
}

#[test]
fn forged_exp_golomb_prefixes_match_the_reference() {
    // 62 zeros is the longest legal prefix; 63 and 64 are too long when
    // present and an end of input when the cut lands inside them. The
    // offset moves the prefix across every bit of the first byte.
    for zeros in [62u8, 63, 64] {
        for offset in 0..8 {
            let mut w = BitWriter::new();
            w.write_bits(0x5A, offset);
            w.write_bits(0, 32);
            w.write_bits(0, zeros - 32);
            w.write_bit(true);
            w.write_bits(0x0123_4567_89AB_CDEF, 64);
            let stream = w.into_bytes();
            for cut in 0..=stream.len() {
                compare_script(&stream[..cut], &[Op::Bits(offset), Op::Ue, Op::Ue]);
            }
        }
    }
}

/// The spectral-selection bands the progressive codec uses.
const BANDS: [(usize, usize); 4] = [(1, 6), (6, 15), (15, 28), (28, 64)];

/// A block with a few non-zero coefficients, some large.
fn sparse_block(rng: &mut ChaCha8Rng) -> [i32; 64] {
    arb_block(rng, |rng| match rng.gen_range(0..10) {
        0 => rng.gen_range(-3000i32..3000),
        1 | 2 => rng.gen_range(-3i32..=3),
        _ => 0,
    })
}

/// One read of a comparison script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Bits(u8),
    Bit,
    Ue,
    Block,
    Band((usize, usize)),
}

/// What a read returned: a value, or the coefficients a block or band
/// decode left.
#[derive(Debug, PartialEq)]
enum Got {
    Value(u64),
    Coeffs(Vec<i32>),
}

/// Runs `script` on the crate's reader and on the per-bit reference until
/// a read fails, comparing every result, the reader position and the DC
/// predictor after each read.
fn compare_script(bytes: &[u8], script: &[Op]) {
    let mut r = BitReader::new(bytes);
    let mut reference = RefReader { bytes, pos: 0 };
    let (mut dc, mut ref_dc) = (0i32, 0i32);
    let (mut zz, mut ref_zz) = ([0i32; 64], [0i32; 64]);
    for (step, &op) in script.iter().enumerate() {
        let got = match op {
            Op::Bits(n) => r.read_bits(n).map(Got::Value),
            Op::Bit => r.read_bit().map(|b| Got::Value(b.into())),
            Op::Ue => entropy::read_ue(&mut r).map(Got::Value),
            Op::Block => entropy::decode_block(&mut r, &mut dc).map(|zz| Got::Coeffs(zz.to_vec())),
            Op::Band((lo, hi)) => {
                entropy::decode_band(&mut r, &mut zz, lo, hi).map(|()| Got::Coeffs(zz.to_vec()))
            }
        }
        .map_err(|e| match e {
            ImageError::CorruptBitstream { detail } => detail,
            other => panic!("unexpected error {other}"),
        });
        let want = match op {
            Op::Bits(n) => reference.read_bits(n).map(Got::Value),
            Op::Bit => reference.read_bit().map(|b| Got::Value(b.into())),
            Op::Ue => reference.read_ue().map(Got::Value),
            Op::Block => reference
                .decode_block(&mut ref_dc)
                .map(|zz| Got::Coeffs(zz.to_vec())),
            Op::Band((lo, hi)) => reference
                .decode_band(&mut ref_zz, lo, hi)
                .map(|()| Got::Coeffs(ref_zz.to_vec())),
        };
        let at = format!("{} bytes, step {step} ({op:?})", bytes.len());
        assert_eq!(got, want, "{at}");
        assert_eq!(r.bits_read(), reference.pos, "{at}: position");
        assert_eq!(dc, ref_dc, "{at}: dc predictor");
        if want.is_err() {
            return;
        }
    }
}

/// The bit-at-a-time writer the word-wide `BitWriter` replaced.
#[derive(Debug, Default, Clone)]
struct RefWriter {
    bytes: Vec<u8>,
    current: u8,
    filled: u8,
}

impl RefWriter {
    fn write_bits(&mut self, value: u64, count: u8) {
        for i in (0..count).rev() {
            self.current = (self.current << 1) | ((value >> i) & 1) as u8;
            self.filled += 1;
            if self.filled == 8 {
                self.bytes.push(self.current);
                self.current = 0;
                self.filled = 0;
            }
        }
    }

    fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.filled as usize
    }

    fn into_bytes(mut self) -> Vec<u8> {
        if self.filled > 0 {
            self.bytes.push(self.current << (8 - self.filled));
        }
        self.bytes
    }
}

/// The bit-at-a-time reader and exp-Golomb / run-length decoders the
/// windowed ones replaced, failing with the same error details.
struct RefReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl RefReader<'_> {
    fn read_bits(&mut self, count: u8) -> Result<u64, &'static str> {
        let mut value = 0u64;
        for _ in 0..count {
            let byte = *self
                .bytes
                .get(self.pos / 8)
                .ok_or("unexpected end of input")?;
            value = (value << 1) | u64::from((byte >> (7 - self.pos % 8)) & 1);
            self.pos += 1;
        }
        Ok(value)
    }

    fn read_bit(&mut self) -> Result<bool, &'static str> {
        Ok(self.read_bits(1)? == 1)
    }

    fn read_ue(&mut self) -> Result<u64, &'static str> {
        let mut zeros = 0u8;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 62 {
                return Err("exp-golomb prefix too long");
            }
        }
        let rest = self.read_bits(zeros)?;
        Ok(((1u64 << zeros) | rest) - 1)
    }

    fn decode_block(&mut self, prev_dc: &mut i32) -> Result<[i32; 64], &'static str> {
        let mut zz = [0i32; 64];
        let u = self.read_ue()?;
        let delta = if u % 2 == 1 {
            u.div_ceil(2) as i64
        } else {
            -((u / 2) as i64)
        };
        let dc = (*prev_dc as i64) + delta;
        if dc.abs() > i32::MAX as i64 / 2 {
            return Err("dc coefficient out of range");
        }
        zz[0] = dc as i32;
        *prev_dc = zz[0];
        self.decode_ac(&mut zz, 1, 64, "ac run past end of block")?;
        Ok(zz)
    }

    fn decode_band(
        &mut self,
        zz: &mut [i32; 64],
        lo: usize,
        hi: usize,
    ) -> Result<(), &'static str> {
        self.decode_ac(zz, lo, hi, "ac run past end of band")
    }

    fn decode_ac(
        &mut self,
        zz: &mut [i32; 64],
        lo: usize,
        hi: usize,
        past_end: &'static str,
    ) -> Result<(), &'static str> {
        let mut pos = lo;
        while self.read_bit()? {
            let run = self.read_ue()? as usize;
            pos = pos.checked_add(run).ok_or("ac run overflow")?;
            if pos >= hi {
                return Err(past_end);
            }
            let negative = self.read_bit()?;
            let mag = self.read_ue()? + 1;
            if mag > i32::MAX as u64 {
                return Err("ac magnitude out of range");
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
}
