//! Every-byte-offset truncation properties of `decode_partial`: the
//! robustness contract the salvage path depends on. A progressive stream
//! cut at *any* byte offset — not just chunk boundaries — must either
//! decode to a valid [`ScanProgress`] or fail with `CorruptBitstream`;
//! it must never panic, and the scan count must be monotone in the
//! prefix length. The lossless decoder is walked the same way, and a
//! forged header claiming more pixels than any allocation may hold must be
//! a typed error. Plain exhaustive loops, no fuzzing framework: the
//! streams are small enough to walk every offset.

use bees_image::codec::lossless::{decode_gray_lossless, encode_gray_lossless};
use bees_image::codec::progressive::{
    decode_partial, encode_progressive_gray, encode_progressive_rgb, ScanProgress, SCAN_BANDS,
};
use bees_image::{GrayF32, GrayImage, ImageError, Rgb, RgbImage};

fn scene(w: u32, h: u32) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        let base = 120.0 + 60.0 * ((x as f64) * 0.09).sin() + 40.0 * ((y as f64) * 0.13).cos();
        let tex = ((x * 5 + y * 11) % 19) as f64;
        let v = (base + tex).clamp(0.0, 255.0) as u8;
        Rgb::new(v, v.wrapping_add(60), 255 - v)
    })
}

/// Asserts the truncation contract over every prefix of `bytes` and
/// returns how many prefixes decoded.
fn check_every_offset(bytes: &[u8], dims: (u32, u32), label: &str) -> usize {
    let mut decodable = 0usize;
    let mut last_scans = 0usize;
    for cut in 0..=bytes.len() {
        match decode_partial(&bytes[..cut]) {
            Ok((decoded, progress)) => {
                decodable += 1;
                assert_eq!(
                    decoded.dimensions(),
                    dims,
                    "{label}: wrong dims at cut {cut}"
                );
                assert_valid_progress(&progress, cut, label);
                assert!(
                    progress.scans_complete >= last_scans,
                    "{label}: scans went backwards at cut {cut}: {} < {last_scans}",
                    progress.scans_complete
                );
                last_scans = progress.scans_complete;
            }
            Err(ImageError::CorruptBitstream { detail }) => {
                assert!(!detail.is_empty(), "{label}: empty detail at cut {cut}");
                // A decodable prefix stays decodable: once a shorter prefix
                // succeeded, a longer one may not start failing.
                assert_eq!(
                    decodable, 0,
                    "{label}: cut {cut} failed after a shorter prefix decoded"
                );
            }
            Err(other) => panic!("{label}: unexpected error at cut {cut}: {other}"),
        }
    }
    decodable
}

fn assert_valid_progress(progress: &ScanProgress, cut: usize, label: &str) {
    assert_eq!(
        progress.scans_total,
        SCAN_BANDS.len(),
        "{label}: wrong scans_total at cut {cut}"
    );
    assert!(
        (1..=progress.scans_total).contains(&progress.scans_complete),
        "{label}: scans_complete {} out of range at cut {cut}",
        progress.scans_complete
    );
    assert!(
        progress.bytes_consumed <= cut,
        "{label}: consumed {} of a {cut}-byte prefix",
        progress.bytes_consumed
    );
}

#[test]
fn gray_stream_truncated_at_every_byte_never_panics() {
    let img = scene(48, 32).to_gray();
    let bytes = encode_progressive_gray(&img, 75).expect("quality in range");
    let decodable = check_every_offset(&bytes, (48, 32), "gray");
    assert!(decodable > 0, "no gray prefix was decodable");
    let (_, full) = decode_partial(&bytes).expect("full stream decodes");
    assert!(full.is_complete(), "full gray stream incomplete: {full:?}");
}

#[test]
fn rgb_stream_truncated_at_every_byte_never_panics() {
    let img = scene(48, 32);
    let bytes = encode_progressive_rgb(&img, 75).expect("quality in range");
    let decodable = check_every_offset(&bytes, (48, 32), "rgb");
    assert!(decodable > 0, "no rgb prefix was decodable");
    let (_, full) = decode_partial(&bytes).expect("full stream decodes");
    assert!(full.is_complete(), "full rgb stream incomplete: {full:?}");
}

#[test]
fn tiny_images_survive_truncation_too() {
    // Degenerate geometries: single block, single pixel, skinny strips.
    for (w, h) in [(8u32, 8u32), (1, 1), (64, 1), (1, 48), (9, 7)] {
        let img = scene(w, h);
        let bytes = encode_progressive_rgb(&img, 60).expect("quality in range");
        check_every_offset(&bytes, (w, h), "tiny-rgb");
        let gray = img.to_gray();
        let gbytes = encode_progressive_gray(&gray, 60).expect("quality in range");
        check_every_offset(&gbytes, (w, h), "tiny-gray");
    }
}

#[test]
fn garbage_prefixes_fail_cleanly() {
    // Streams that were never valid: empty, short junk, and a real header
    // followed by noise. All must be CorruptBitstream, never a panic.
    let junk: Vec<u8> = (0..512u32).map(|i| (i * 37 + 11) as u8).collect();
    for cut in 0..=junk.len() {
        match decode_partial(&junk[..cut]) {
            Ok(_) => panic!("junk prefix of {cut} bytes decoded"),
            Err(ImageError::CorruptBitstream { .. }) => {}
            Err(other) => panic!("unexpected error on junk at cut {cut}: {other}"),
        }
    }
    // Corrupt a valid stream's tail: decode must still return a valid
    // progress (from the intact scans) or a clean error.
    let img = scene(32, 24);
    let mut bytes = encode_progressive_rgb(&img, 70).expect("quality in range");
    let n = bytes.len();
    for b in bytes[n / 2..].iter_mut() {
        *b ^= 0xA5;
    }
    match decode_partial(&bytes) {
        Ok((decoded, progress)) => {
            assert_eq!(decoded.dimensions(), (32, 24));
            assert_valid_progress(&progress, n, "corrupt-tail");
        }
        Err(ImageError::CorruptBitstream { .. }) => {}
        Err(other) => panic!("unexpected error on corrupt tail: {other}"),
    }
}

#[test]
fn forged_lossless_header_is_a_typed_error() {
    // A 13-byte stream: the lossless magic, a u32::MAX × u32::MAX header
    // and 4 payload bytes. Sizing a buffer from the header alone would ask
    // for more than any allocation may hold.
    let mut forged = vec![0xB7];
    forged.extend_from_slice(&u32::MAX.to_le_bytes());
    forged.extend_from_slice(&u32::MAX.to_le_bytes());
    forged.extend_from_slice(&[0xFF; 4]);
    assert!(matches!(
        decode_gray_lossless(&forged),
        Err(ImageError::CorruptBitstream { .. })
    ));
    let overflow = ImageError::InvalidDimensions {
        width: u32::MAX,
        height: u32::MAX,
    };
    assert_eq!(GrayImage::new(u32::MAX, u32::MAX), Err(overflow.clone()));
    assert_eq!(GrayF32::new(u32::MAX, u32::MAX), Err(overflow.clone()));
    assert_eq!(RgbImage::new(u32::MAX, u32::MAX), Err(overflow));
}

#[test]
fn lossless_stream_truncated_at_every_byte_never_panics() {
    // Every residual ends in the last byte, so only the whole stream
    // decodes; each shorter prefix fails with `CorruptBitstream`.
    for (w, h) in [(48u32, 32u32), (9, 7), (1, 1)] {
        let img = scene(w, h).to_gray();
        let bytes = encode_gray_lossless(&img);
        for cut in 0..bytes.len() {
            match decode_gray_lossless(&bytes[..cut]) {
                Err(ImageError::CorruptBitstream { .. }) => {}
                other => panic!("{w}x{h} cut at {cut}: {other:?}"),
            }
        }
        assert_eq!(decode_gray_lossless(&bytes), Ok(img));
    }
}
