//! ORB's per-pixel kernels against per-pixel references, bit for bit.
//!
//! Each reference below is the straightforward form of its kernel: every
//! sample read through `get`/`get_clamped`, FAST's segment test walking
//! the doubled circle at every pixel that passes the compass test, the
//! Harris sums accumulated in `f64` from `f32` Sobel products, the
//! orientation moments over the whole square with a radius test per
//! pixel, and BRIEF rounding through `f32::round`. The kernels in
//! `bees_features` must return exactly what these return: the same FAST
//! corners in the same order with the same score bits, the same Harris
//! and angle bits, the same descriptor bytes.
//!
//! Inputs are seeded noise, a smooth scene with noise, and a blocky scene
//! with flat areas and sharp edges, at sizes from 7×7 to 384×288 with odd
//! widths. Run at several `BEES_THREADS` values: nothing here may depend
//! on the worker count.

use bees_features::brief::BriefPattern;
use bees_features::fast::{self, FastCorner, CIRCLE};
use bees_features::harris::{harris_response, HARRIS_K};
use bees_features::orientation::intensity_centroid_angle;
use bees_features::BinaryDescriptor;
use bees_image::GrayImage;

/// SplitMix64: a tiny seeded generator for test inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn noise(w: u32, h: u32, seed: u64) -> GrayImage {
    let mut s = seed;
    GrayImage::from_fn(w, h, |_, _| splitmix(&mut s) as u8)
}

/// Smooth structure plus seeded noise, like a camera frame.
fn scene(w: u32, h: u32, seed: u64) -> GrayImage {
    let mut s = seed;
    GrayImage::from_fn(w, h, |x, y| {
        let base = (x * 3 + y * 2 + (x * y) % 41) % 200;
        (base + (splitmix(&mut s) % 48) as u32) as u8
    })
}

/// Flat blocks with sharp edges and a little noise: many strong corners,
/// runs of equal pixels, and scores at every threshold.
fn blocks(w: u32, h: u32, seed: u64) -> GrayImage {
    let mut s = seed;
    GrayImage::from_fn(w, h, |x, y| {
        let level = ((x / 5) * 7 + (y / 4) * 13 + (x / 11) * (y / 9)) % 6;
        let n = splitmix(&mut s);
        (level as u8 * 50).saturating_add(u8::from(n.is_multiple_of(4)) * (n >> 8) as u8 % 6)
    })
}

const SIZES: [(u32, u32); 8] = [
    (7, 7),
    (8, 7),
    (9, 12),
    (13, 11),
    (37, 21),
    (64, 48),
    (97, 71),
    (384, 288),
];

fn images() -> Vec<GrayImage> {
    let mut out = Vec::new();
    for (n, &(w, h)) in SIZES.iter().enumerate() {
        let seed = 0xFA57 + n as u64;
        out.push(noise(w, h, seed));
        out.push(scene(w, h, seed));
        out.push(blocks(w, h, seed));
    }
    out
}

/// The FAST-9 segment test at one pixel: all 16 circle samples through
/// `get`, the compass test on samples 0, 4, 8 and 12, then a walk of the
/// doubled circle per class that passed it.
fn reference_segment_test(img: &GrayImage, x: u32, y: u32, threshold: u8) -> Option<f32> {
    let p = img.get(x, y) as i32;
    let t = threshold as i32;
    let mut values = [0i32; 16];
    for (i, &(dx, dy)) in CIRCLE.iter().enumerate() {
        values[i] = img.get((x as i32 + dx) as u32, (y as i32 + dy) as u32) as i32;
    }
    let quick = [values[0], values[4], values[8], values[12]];
    let brighter_quick = quick.iter().filter(|&&v| v >= p + t).count();
    let darker_quick = quick.iter().filter(|&&v| v <= p - t).count();
    if brighter_quick < 2 && darker_quick < 2 {
        return None;
    }
    let mut best_score = None::<f32>;
    for (class_sign, pass) in [(1i32, brighter_quick >= 2), (-1i32, darker_quick >= 2)] {
        if !pass {
            continue;
        }
        let is_member = |v: i32| -> bool {
            if class_sign > 0 {
                v >= p + t
            } else {
                v <= p - t
            }
        };
        let mut run = 0usize;
        let mut max_run = 0usize;
        let mut run_excess = 0i32;
        let mut best_excess = 0i32;
        for i in 0..32 {
            let v = values[i % 16];
            if is_member(v) {
                run += 1;
                run_excess += (v - p).abs() - t;
                if run > max_run || (run == max_run && run_excess > best_excess) {
                    max_run = run.min(16);
                    best_excess = run_excess;
                }
            } else {
                run = 0;
                run_excess = 0;
            }
            if max_run >= 16 {
                break;
            }
        }
        if max_run >= 9 {
            let score = best_excess as f32;
            if best_score.is_none_or(|s| score > s) {
                best_score = Some(score);
            }
        }
    }
    best_score
}

/// FAST-9 with 3×3 non-maximum suppression, one segment test per pixel.
fn reference_detect(img: &GrayImage, threshold: u8) -> Vec<FastCorner> {
    let (w, h) = img.dimensions();
    if w < 7 || h < 7 {
        return Vec::new();
    }
    let mut scores = vec![0f32; (w * h) as usize];
    let mut candidates = Vec::new();
    for y in 3..h - 3 {
        for x in 3..w - 3 {
            if let Some(score) = reference_segment_test(img, x, y, threshold) {
                scores[(y * w + x) as usize] = score;
                candidates.push((x, y, score));
            }
        }
    }
    let mut corners = Vec::new();
    'cand: for (x, y, score) in candidates {
        for dy in -1i32..=1 {
            for dx in -1i32..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = (x as i32 + dx) as u32;
                let ny = (y as i32 + dy) as u32;
                let neighbor = scores[(ny * w + nx) as usize];
                if neighbor > score || (neighbor == score && (dy < 0 || (dy == 0 && dx < 0))) {
                    continue 'cand;
                }
            }
        }
        corners.push(FastCorner { x, y, score });
    }
    corners.sort_by(|a, b| b.score.partial_cmp(&a.score).expect("scores are finite"));
    corners
}

/// Harris over a `(2·block + 1)²` window of `f32` Sobel products, summed
/// in `f64` in row-major order.
fn reference_harris(img: &GrayImage, x: u32, y: u32, block: u32) -> Option<f32> {
    let b = block as i64;
    let (w, h) = (img.width() as i64, img.height() as i64);
    let (cx, cy) = (x as i64, y as i64);
    if cx - b - 1 < 0 || cy - b - 1 < 0 || cx + b + 1 >= w || cy + b + 1 >= h {
        return None;
    }
    let p = |x: i64, y: i64| img.get_clamped(x, y) as f32;
    let mut sxx = 0f64;
    let mut syy = 0f64;
    let mut sxy = 0f64;
    for yy in (cy - b)..=(cy + b) {
        for xx in (cx - b)..=(cx + b) {
            let gx = (p(xx + 1, yy - 1) + 2.0 * p(xx + 1, yy) + p(xx + 1, yy + 1))
                - (p(xx - 1, yy - 1) + 2.0 * p(xx - 1, yy) + p(xx - 1, yy + 1));
            let gy = (p(xx - 1, yy + 1) + 2.0 * p(xx, yy + 1) + p(xx + 1, yy + 1))
                - (p(xx - 1, yy - 1) + 2.0 * p(xx, yy - 1) + p(xx + 1, yy - 1));
            sxx += (gx * gx) as f64;
            syy += (gy * gy) as f64;
            sxy += (gx * gy) as f64;
        }
    }
    let n = ((2 * b + 1) * (2 * b + 1)) as f64;
    let (sxx, syy, sxy) = (sxx / n, syy / n, sxy / n);
    let det = sxx * syy - sxy * sxy;
    let trace = sxx + syy;
    Some((det - HARRIS_K as f64 * trace * trace) as f32)
}

/// Intensity-centroid angle over the whole square, testing each pixel's
/// radius.
fn reference_angle(img: &GrayImage, x: u32, y: u32, radius: u32) -> f32 {
    let r = radius as i64;
    let (cx, cy) = (x as i64, y as i64);
    let mut m01 = 0i64;
    let mut m10 = 0i64;
    for dy in -r..=r {
        for dx in -r..=r {
            if dx * dx + dy * dy > r * r {
                continue;
            }
            let v = img.get_clamped(cx + dx, cy + dy) as i64;
            m10 += dx * v;
            m01 += dy * v;
        }
    }
    if m01 == 0 && m10 == 0 {
        return 0.0;
    }
    (m01 as f32).atan2(m10 as f32)
}

/// Steered BRIEF with every sample position rounded by `f32::round`.
fn reference_describe(
    pattern: &BriefPattern,
    img: &GrayImage,
    x: f32,
    y: f32,
    angle: f32,
) -> BinaryDescriptor {
    let (sin, cos) = angle.sin_cos();
    let mut desc = BinaryDescriptor::zero();
    for (i, &((ax, ay), (bx, by))) in pattern.pairs().iter().enumerate() {
        let sample = |px: f32, py: f32| -> u8 {
            let rx = cos * px - sin * py;
            let ry = sin * px + cos * py;
            img.get_clamped((x + rx).round() as i64, (y + ry).round() as i64)
        };
        if sample(ax, ay) < sample(bx, by) {
            desc.set_bit(i);
        }
    }
    desc
}

fn corner_bits(corners: &[FastCorner]) -> Vec<(u32, u32, u32)> {
    corners
        .iter()
        .map(|c| (c.x, c.y, c.score.to_bits()))
        .collect()
}

#[test]
fn fast_matches_the_per_pixel_reference() {
    let thresholds = [0u8, 1, 20, 60, 255];
    let mut found = [0usize; 5];
    for (i, img) in images().iter().enumerate() {
        for (n, &threshold) in thresholds.iter().enumerate() {
            let want = reference_detect(img, threshold);
            let got = fast::detect(img, threshold);
            assert_eq!(
                corner_bits(&got),
                corner_bits(&want),
                "image {i} ({:?}), threshold {threshold}",
                img.dimensions()
            );
            found[n] += want.len();
        }
    }
    // Every threshold below the top one finds corners to compare.
    assert!(
        found[..4].iter().all(|&n| n > 100),
        "corners found: {found:?}"
    );
}

#[test]
fn harris_matches_the_per_pixel_reference() {
    for (i, img) in images().iter().enumerate() {
        let (w, h) = img.dimensions();
        // Every pixel of the small images, a sparse grid of the large one.
        let step = if w * h > 10_000 { 7 } else { 1 };
        for block in [1, 3] {
            for y in (0..h).step_by(step) {
                for x in (0..w).step_by(step) {
                    let want = reference_harris(img, x, y, block).map(f32::to_bits);
                    let got = harris_response(img, x, y, block).map(f32::to_bits);
                    assert_eq!(got, want, "image {i}, ({x}, {y}), block {block}");
                }
            }
        }
    }
}

#[test]
fn orientation_matches_the_per_pixel_reference() {
    for (i, img) in images().iter().enumerate() {
        let (w, h) = img.dimensions();
        let step = (w.max(h) / 12).max(1) as usize;
        for radius in [0, 1, 3, 15, 20] {
            // Interior points, the borders and the corners: patches that
            // hang over every side clamp.
            for y in (0..h).step_by(step).chain([h - 1]) {
                for x in (0..w).step_by(step).chain([w - 1]) {
                    let want = reference_angle(img, x, y, radius);
                    let got = intensity_centroid_angle(img, x, y, radius);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "image {i}, ({x}, {y}), radius {radius}"
                    );
                }
            }
        }
    }
}

#[test]
fn brief_matches_the_per_pixel_reference() {
    let pattern = BriefPattern::default();
    let mut s = 0xB41Eu64;
    for (i, img) in images().iter().enumerate() {
        let (w, h) = img.dimensions();
        for k in 0..24 {
            // Integer level positions (what ORB passes), half-pixel ones
            // (rounding ties) and arbitrary ones, inside and off the image.
            let n = splitmix(&mut s);
            let fx = (n % (w as u64 + 8)) as f32 - 4.0;
            let fy = ((n >> 16) % (h as u64 + 8)) as f32 - 4.0;
            let frac = match k % 3 {
                0 => 0.0,
                1 => 0.5,
                _ => ((n >> 32) % 1000) as f32 / 1000.0,
            };
            let angle = ((n >> 40) % 6284) as f32 / 1000.0 - std::f32::consts::PI;
            let (x, y) = (fx + frac, fy - frac);
            let want = reference_describe(&pattern, img, x, y, angle);
            let got = pattern.describe(img, x, y, angle);
            assert_eq!(got, want, "image {i}, ({x}, {y}), angle {angle}");
        }
    }
}
