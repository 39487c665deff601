//! Bit-exactness pins for the Gaussian blur, DCT, resize and SSIM kernels.
//!
//! `gaussian_blur_f32` is compared bit for bit against a per-pixel
//! reference convolution (clamped taps, one `f32` accumulator per pixel,
//! taps in ascending order) across sizes narrower and shorter than the
//! kernel radius, and the 8×8 DCT pair against per-output reference loops.
//! `ssim`, both bilinear resizes, the colour codec round trip and the
//! progressive colour encoder's bytes are pinned to constants, so any
//! change to their arithmetic order or layout shows up here.
//!
//! Inputs come from integer arithmetic only (no seeded generator, no
//! `sin`), so the pins depend on nothing but the kernels. Run at several
//! `BEES_THREADS` values: the results must not depend on the worker count.

use bees_image::blur::{gaussian_blur_f32, gaussian_kernel};
use bees_image::codec::dct::{forward_dct_8x8, inverse_dct_8x8};
use bees_image::{codec, metrics, resize, GrayF32, GrayImage, Rgb, RgbImage};

/// SplitMix64: a tiny seeded generator for test inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Smooth structure plus seeded noise, like a camera frame.
fn scene(w: u32, h: u32, seed: u64) -> GrayImage {
    let mut s = seed;
    GrayImage::from_fn(w, h, |x, y| {
        let base = (x * 3 + y * 2 + (x * y) % 41) % 200;
        (base + (splitmix(&mut s) % 48) as u32) as u8
    })
}

fn noise_f32(w: u32, h: u32, seed: u64) -> GrayF32 {
    let mut s = seed;
    let data = (0..w * h)
        .map(|_| (splitmix(&mut s) % 25_600) as f32 / 100.0)
        .collect();
    GrayF32::from_raw(w, h, data).unwrap()
}

fn rgb_scene(w: u32, h: u32, seed: u64) -> RgbImage {
    let mut s = seed;
    RgbImage::from_fn(w, h, |x, y| {
        let n = splitmix(&mut s);
        Rgb::new(
            ((x * 2 + y) % 256) as u8 ^ (n & 31) as u8,
            ((x * y) % 199) as u8 + ((n >> 8) & 31) as u8,
            (255 - (y * 3) % 256) as u8 ^ ((n >> 16) & 15) as u8,
        )
    })
}

/// The per-pixel separable convolution: every tap read through
/// `get_clamped`, accumulated into one `f32` from `0.0` in ascending tap
/// order, horizontal pass first.
fn reference_blur(src: &GrayF32, sigma: f64) -> GrayF32 {
    let kernel = gaussian_kernel(sigma).unwrap();
    let radius = (kernel.len() / 2) as i64;
    let (w, h) = (src.width(), src.height());
    let pass = |img: &GrayF32, horizontal: bool| {
        let mut data = Vec::with_capacity(w as usize * h as usize);
        for y in 0..h as i64 {
            for x in 0..w as i64 {
                let mut acc = 0.0f32;
                for (i, &k) in kernel.iter().enumerate() {
                    let off = i as i64 - radius;
                    acc += k * if horizontal {
                        img.get_clamped(x + off, y)
                    } else {
                        img.get_clamped(x, y + off)
                    };
                }
                data.push(acc);
            }
        }
        GrayF32::from_raw(w, h, data).unwrap()
    };
    pass(&pass(src, true), false)
}

/// Bilinear resize one output pixel at a time: the four taps read through
/// `get_clamped`, weighted in the kernel's operation order and rounded
/// with `f64::round`.
fn reference_resize(src: &GrayImage, width: u32, height: u32) -> GrayImage {
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    GrayImage::from_fn(width, height, |x, y| {
        let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
        let y0 = fy.floor() as i64;
        let dy = fy - y0 as f64;
        let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
        let x0 = fx.floor() as i64;
        let dx = fx - x0 as f64;
        let p00 = src.get_clamped(x0, y0) as f64;
        let p10 = src.get_clamped(x0 + 1, y0) as f64;
        let p01 = src.get_clamped(x0, y0 + 1) as f64;
        let p11 = src.get_clamped(x0 + 1, y0 + 1) as f64;
        let v = p00 * (1.0 - dx) * (1.0 - dy)
            + p10 * dx * (1.0 - dy)
            + p01 * (1.0 - dx) * dy
            + p11 * dx * dy;
        v.round().clamp(0.0, 255.0) as u8
    })
}

/// The colour resize one output pixel at a time: per channel, the four
/// weighted taps added to `0.0` in tap order, rounded with `f64::round`.
fn reference_resize_rgb(src: &RgbImage, width: u32, height: u32) -> RgbImage {
    let sx = src.width() as f64 / width as f64;
    let sy = src.height() as f64 / height as f64;
    let clamped = |x: i64, y: i64| -> Rgb {
        let cx = x.clamp(0, src.width() as i64 - 1) as u32;
        let cy = y.clamp(0, src.height() as i64 - 1) as u32;
        src.get(cx, cy)
    };
    RgbImage::from_fn(width, height, |x, y| {
        let fy = ((y as f64 + 0.5) * sy - 0.5).max(0.0);
        let y0 = fy.floor() as i64;
        let dy = fy - y0 as f64;
        let fx = ((x as f64 + 0.5) * sx - 0.5).max(0.0);
        let x0 = fx.floor() as i64;
        let dx = fx - x0 as f64;
        let ps = [
            (clamped(x0, y0), (1.0 - dx) * (1.0 - dy)),
            (clamped(x0 + 1, y0), dx * (1.0 - dy)),
            (clamped(x0, y0 + 1), (1.0 - dx) * dy),
            (clamped(x0 + 1, y0 + 1), dx * dy),
        ];
        let mut r = 0.0;
        let mut g = 0.0;
        let mut b = 0.0;
        for (p, w) in ps {
            r += p.r as f64 * w;
            g += p.g as f64 * w;
            b += p.b as f64 * w;
        }
        let round = |v: f64| v.round().clamp(0.0, 255.0) as u8;
        Rgb::new(round(r), round(g), round(b))
    })
}

/// `cos((2x + 1) * u * PI / 16)`, computed as the codec computes it.
fn dct_basis() -> [[f32; 8]; 8] {
    let mut b = [[0f32; 8]; 8];
    for (u, row) in b.iter_mut().enumerate() {
        for (x, v) in row.iter_mut().enumerate() {
            *v = (((2 * x + 1) as f32) * (u as f32) * std::f32::consts::PI / 16.0).cos();
        }
    }
    b
}

fn dct_alpha(u: usize) -> f32 {
    if u == 0 {
        std::f32::consts::FRAC_1_SQRT_2
    } else {
        1.0
    }
}

/// The forward DCT one output at a time: rows, then columns, each output
/// summed from `0.0` in ascending index and scaled by `0.5 * alpha`.
fn reference_forward_dct(input: &[f32; 64]) -> [f32; 64] {
    let b = dct_basis();
    let mut tmp = [0f32; 64];
    for y in 0..8 {
        for u in 0..8 {
            let mut acc = 0.0;
            for x in 0..8 {
                acc += input[y * 8 + x] * b[u][x];
            }
            tmp[y * 8 + u] = 0.5 * dct_alpha(u) * acc;
        }
    }
    let mut output = [0f32; 64];
    for u in 0..8 {
        for v in 0..8 {
            let mut acc = 0.0;
            for y in 0..8 {
                acc += tmp[y * 8 + u] * b[v][y];
            }
            output[v * 8 + u] = 0.5 * dct_alpha(v) * acc;
        }
    }
    output
}

/// The inverse DCT one output at a time: columns, then rows, each term
/// `(alpha · c) · b`, summed from `0.0` in ascending index.
fn reference_inverse_dct(coeffs: &[f32; 64]) -> [f32; 64] {
    let b = dct_basis();
    let mut tmp = [0f32; 64];
    for u in 0..8 {
        for y in 0..8 {
            let mut acc = 0.0;
            for v in 0..8 {
                acc += dct_alpha(v) * coeffs[v * 8 + u] * b[v][y];
            }
            tmp[y * 8 + u] = 0.5 * acc;
        }
    }
    let mut output = [0f32; 64];
    for y in 0..8 {
        for x in 0..8 {
            let mut acc = 0.0;
            for u in 0..8 {
                acc += dct_alpha(u) * tmp[y * 8 + u] * b[u][x];
            }
            output[y * 8 + x] = 0.5 * acc;
        }
    }
    output
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn blur_matches_the_per_pixel_reference_bit_for_bit() {
    let sizes = [(1, 1), (3, 2), (2, 17), (37, 21), (96, 72), (384, 288)];
    for (n, &(w, h)) in sizes.iter().enumerate() {
        let src = noise_f32(w, h, 0xB1u64 + n as u64);
        for sigma in [0.8, 1.5, 2.0, 3.0] {
            let want = reference_blur(&src, sigma);
            let got = gaussian_blur_f32(&src, sigma).unwrap();
            assert_eq!(got.width(), w);
            assert_eq!(got.height(), h);
            for (i, (g, r)) in got.pixels().iter().zip(want.pixels()).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    r.to_bits(),
                    "{w}x{h} sigma {sigma}: pixel {i} is {g}, reference {r}"
                );
            }
        }
    }
}

#[test]
fn dct_matches_the_per_output_reference_bit_for_bit() {
    let mut s = 0xDC7u64;
    let mut blocks: Vec<[f32; 64]> = Vec::new();
    for k in 0..2000 {
        let mut block = [0f32; 64];
        for v in &mut block {
            let n = splitmix(&mut s);
            *v = match k % 4 {
                // Level-shifted samples, as the encoder transforms them.
                0 => (n % 256) as f32 - 128.0,
                // Dequantized coefficients: a step times a small integer.
                1 => ((n % 41) as f32 - 20.0) * (1 + (n >> 8) % 120) as f32,
                // Sparse coefficients, as most decoded blocks are.
                2 if n.is_multiple_of(5) => ((n >> 8) % 2001) as f32 - 1000.0,
                2 => 0.0,
                // Arbitrary magnitudes and signs, zeros of both signs.
                _ => f32::from_bits((n >> 32) as u32 & 0xC7FF_FFFF),
            };
        }
        blocks.push(block);
    }
    blocks.push([0.0; 64]);
    blocks.push([-0.0; 64]);
    for (k, block) in blocks.iter().enumerate() {
        let mut got = [0f32; 64];
        forward_dct_8x8(block, &mut got);
        let want = reference_forward_dct(block);
        let bits = |a: &[f32; 64]| a.map(f32::to_bits);
        assert_eq!(bits(&got), bits(&want), "forward, block {k}");
        inverse_dct_8x8(block, &mut got);
        let want = reference_inverse_dct(block);
        assert_eq!(bits(&got), bits(&want), "inverse, block {k}");
    }
}

#[test]
fn ssim_is_pinned_for_three_image_pairs() {
    // A camera-like frame against a gray-codec round trip.
    let a = scene(384, 288, 11);
    let a_back = codec::decode_gray(&codec::encode_gray(&a, 40).unwrap()).unwrap();
    // Two unrelated frames, neither side a multiple of the 8-pixel block.
    let b = scene(37, 21, 12);
    let b2 = scene(37, 21, 13);
    // A colour frame against its colour-codec round trip, both as luma.
    // Odd sides clip the last 2x2 chroma neighbourhoods.
    let c = rgb_scene(97, 71, 14);
    let c_bytes = codec::encode_rgb(&c, 60).unwrap();
    let c_back = codec::decode_rgb(&c_bytes).unwrap();

    let pins = [
        // 0.7357827980397015
        (
            metrics::ssim(&a, &a_back).unwrap(),
            0x3fe7_8b88_5dd1_46c9_u64,
        ),
        // 0.5127802203864661
        (metrics::ssim(&b, &b2).unwrap(), 0x3fe0_68b2_1093_0eb3),
        // 0.9232440113364396
        (
            metrics::ssim(&c.to_gray(), &c_back.to_gray()).unwrap(),
            0x3fed_8b37_065d_5f1f,
        ),
    ];
    for (i, (got, want)) in pins.iter().enumerate() {
        assert_eq!(
            got.to_bits(),
            *want,
            "pair {i}: ssim {got} (bits {:#018x})",
            got.to_bits()
        );
    }

    // The colour codec's plane split and merge, pinned on the bytes.
    let pixels = c_back.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
    assert_eq!(
        fnv1a(c_bytes.iter().copied()),
        0x4fca_208e_cba5_04a9,
        "encoded bytes"
    );
    assert_eq!(fnv1a(pixels), 0xa237_c593_818a_6533, "decoded pixels");
    assert_eq!(fnv1a(c.to_gray().into_raw()), 0x72a8_d5b1_be53_152c, "luma");
}

#[test]
fn resizes_match_the_per_pixel_reference_bit_for_bit() {
    // Sources from 1x1 to 384x288 with odd sides, including 1-pixel-wide
    // and 1-pixel-tall ones.
    let sources = [
        (1, 1),
        (1, 17),
        (17, 1),
        (7, 7),
        (37, 21),
        (97, 71),
        (384, 288),
    ];
    for (n, &(sw, sh)) in sources.iter().enumerate() {
        let gray = scene(sw, sh, 0x2E5 + n as u64);
        let rgb = rgb_scene(sw, sh, 0x2E6 + n as u64);
        // Down and up by assorted ratios (2:3 mixes give weights whose
        // exact sums land on half-integers), to 1x1, and to one row or
        // column.
        let targets = [
            (1, 1),
            (1, sh.max(2)),
            (sw.max(2), 1),
            (sw * 2, sh * 3),
            (sw * 3, sh * 2),
            (sw.div_ceil(2), sh.div_ceil(3)),
            ((sw * 4).div_ceil(5), (sh * 4).div_ceil(5)),
            (sw + 1, sh + 2),
            (103, 67),
        ];
        for (w, h) in targets {
            let want = reference_resize(&gray, w, h);
            let got = resize::resize_bilinear(&gray, w, h).unwrap();
            assert_eq!(got, want, "gray {sw}x{sh} -> {w}x{h}");
            let want = reference_resize_rgb(&rgb, w, h);
            let got = resize::resize_bilinear_rgb(&rgb, w, h).unwrap();
            assert_eq!(got, want, "rgb {sw}x{sh} -> {w}x{h}");
        }
    }
}

#[test]
fn resize_outputs_are_pinned() {
    // Down (the AFE shrink and a pyramid level), up, to 1x1, and from a
    // 1-pixel-wide source; odd sides throughout.
    let shapes = [
        ((384, 288), (307, 230)),
        ((307, 230), (256, 192)),
        ((37, 21), (96, 55)),
        ((37, 21), (1, 1)),
        ((1, 17), (5, 9)),
    ];
    let mut got = Vec::new();
    for (n, &((sw, sh), (w, h))) in shapes.iter().enumerate() {
        let gray = resize::resize_bilinear(&scene(sw, sh, 0x5E + n as u64), w, h).unwrap();
        let rgb = resize::resize_bilinear_rgb(&rgb_scene(sw, sh, 0x5F + n as u64), w, h).unwrap();
        assert_eq!(gray.dimensions(), (w, h));
        assert_eq!(rgb.dimensions(), (w, h));
        let rgb_bytes = rgb.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
        got.push((fnv1a(gray.into_raw()), fnv1a(rgb_bytes)));
    }
    let want = [
        (0x446b_8126_9bb0_9c03, 0x469b_2048_186f_74fa),
        (0xba24_20dc_866a_f5ad, 0x7bfa_e437_b844_1a70),
        (0x6a96_dd66_7102_f7ff, 0xc53e_9035_87d7_f368),
        (0xaf63_e44c_8601_fa24, 0x963e_fb18_46b6_3341),
        (0xa540_b884_8ede_139a, 0xa815_5ad1_69d7_1653),
    ];
    assert_eq!(got, want, "{got:#018x?}");
}

#[test]
fn progressive_bytes_are_pinned() {
    // Odd sides clip the last chroma neighbourhoods and partial blocks; q15
    // is BEES's upload quality, q85 a camera-grade one.
    let img = rgb_scene(97, 71, 15);
    for (quality, len, want) in [
        (15u8, 885usize, 0x3592_ee07_29c6_8f6f_u64),
        (85, 4986, 0xe2b0_044a_b937_44a3),
    ] {
        let bytes = codec::progressive::encode_progressive_rgb(&img, quality).unwrap();
        let got = fnv1a(bytes.iter().copied());
        assert_eq!(
            (bytes.len(), got),
            (len, want),
            "q{quality}: {} bytes, fnv {got:#018x}",
            bytes.len()
        );
    }
}
