//! SIFT: scale-invariant feature transform (Lowe, IJCV 2004).
//!
//! BEES uses SIFT as the precision gold standard (Fig. 6) and as the space/
//! energy anti-baseline (Table I): every feature is a 128-dimensional
//! gradient-histogram vector, roughly two orders of magnitude more expensive
//! to compute than ORB.
//!
//! This implementation follows the classic pipeline: Gaussian scale space →
//! difference-of-Gaussians extrema → contrast & edge rejection → dominant
//! gradient orientation → 4×4×8 descriptor. Sub-pixel refinement is omitted
//! (it improves localization, not the detection/matching behaviour the
//! reproduction depends on).

use crate::descriptor::{Descriptors, ImageFeatures, VectorDescriptor};
use crate::extractor::{ExtractionStats, ExtractorKind, FeatureExtractor};
use crate::keypoint::Keypoint;
use bees_image::{blur, round_i32, GrayF32, GrayImage};

/// Maximum number of features to keep (strongest DoG responses first).
pub const N_FEATURES: usize = 500;
/// Number of octaves (each halves the resolution).
const N_OCTAVES: u8 = 4;
/// Scale samples per octave (`s`; the octave holds `s + 3` blurs).
const SCALES_PER_OCTAVE: u8 = 3;
/// Blur of the first scale in each octave.
const BASE_SIGMA: f64 = 1.6;
/// Minimum absolute DoG response (on the 0..255 intensity scale). Lowe's
/// classic value is 0.03 · 255 ≈ 7.65 for photographs; the synthetic
/// scenes in this reproduction are smoother than photos, so it is lowered
/// to keep the keypoint yield comparable to real-image SIFT.
const CONTRAST_THRESHOLD: f32 = 2.0;
/// Maximum principal-curvature ratio `r` for the edge test (`(r+1)²/r`
/// bound on `tr²/det`).
const EDGE_THRESHOLD: f32 = 10.0;

/// Gaussian scale space: per octave, a stack of progressively blurred
/// images. Shared with PCA-SIFT, which samples gradient patches from it.
#[derive(Debug, Clone)]
pub struct ScaleSpace {
    /// `octaves[o][i]` is the `i`-th blur of octave `o`.
    pub octaves: Vec<Vec<GrayF32>>,
    /// Scale factor of each octave relative to the input (1, 2, 4, ...).
    pub octave_scales: Vec<f32>,
}

impl ScaleSpace {
    /// Total pixels across all blurred images (work-size for energy).
    pub fn total_pixels(&self) -> usize {
        self.octaves
            .iter()
            .flat_map(|o| o.iter())
            .map(|g| g.pixels().len())
            .sum()
    }
}

/// A scale-space extremum that survived contrast and edge tests, expressed
/// in octave-local coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSpacePoint {
    /// Octave index.
    pub octave: usize,
    /// Gaussian layer index the point was detected between.
    pub layer: usize,
    /// Column within the octave image.
    pub x: u32,
    /// Row within the octave image.
    pub y: u32,
    /// Absolute DoG response.
    pub response: f32,
    /// Dominant gradient orientation in radians.
    pub angle: f32,
}

/// The SIFT feature extractor.
///
/// # Examples
///
/// ```
/// use bees_features::sift::Sift;
/// use bees_features::FeatureExtractor;
/// use bees_image::GrayImage;
///
/// let img = GrayImage::from_fn(96, 96, |x, y| {
///     if ((x / 12) + (y / 12)) % 2 == 0 { 200 } else { 40 }
/// });
/// let features = Sift.extract(&img);
/// assert!(!features.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Sift;

impl Sift {
    /// Builds the Gaussian scale space for an image.
    pub fn scale_space(&self, img: &GrayImage) -> ScaleSpace {
        let s = SCALES_PER_OCTAVE as i32;
        let k = 2f64.powf(1.0 / s as f64);
        let mut octaves = Vec::new();
        let mut octave_scales = Vec::new();
        let mut base = img.to_f32();
        let mut octave_scale = 1.0f32;
        for _o in 0..N_OCTAVES {
            if base.width() < 16 || base.height() < 16 {
                break;
            }
            let mut stack = Vec::with_capacity((s + 3) as usize);
            // First layer: bring the base to base_sigma.
            let first = blur::gaussian_blur_f32(&base, BASE_SIGMA).expect("base sigma is positive");
            stack.push(first);
            for i in 1..(s + 3) {
                // Incremental blur from the previous layer.
                let sigma_prev = BASE_SIGMA * k.powi(i - 1);
                let sigma_next = BASE_SIGMA * k.powi(i);
                let inc = (sigma_next * sigma_next - sigma_prev * sigma_prev).sqrt();
                let next = blur::gaussian_blur_f32(&stack[(i - 1) as usize], inc)
                    .expect("incremental sigma is positive");
                stack.push(next);
            }
            // Next octave base: layer `s` (sigma doubled) downsampled by 2.
            let doubled = &stack[s as usize];
            let (w, h) = (doubled.width() / 2, doubled.height() / 2);
            octaves.push(stack);
            octave_scales.push(octave_scale);
            if w < 16 || h < 16 {
                break;
            }
            let mut next_base = GrayF32::new(w, h).expect("downsampled octave is non-empty");
            {
                let src = &octaves.last().expect("just pushed")[s as usize];
                for y in 0..h {
                    for x in 0..w {
                        next_base.set(x, y, src.get(x * 2, y * 2));
                    }
                }
            }
            base = next_base;
            octave_scale *= 2.0;
        }
        ScaleSpace {
            octaves,
            octave_scales,
        }
    }

    /// Detects scale-space extrema with contrast and edge rejection, and
    /// assigns each a dominant orientation.
    pub fn detect(&self, space: &ScaleSpace) -> Vec<ScaleSpacePoint> {
        let mut points = Vec::new();
        for (o, stack) in space.octaves.iter().enumerate() {
            // DoG layers.
            let dogs: Vec<GrayF32> = stack
                .windows(2)
                .map(|w| {
                    let mut d = GrayF32::new(w[0].width(), w[0].height())
                        .expect("octave images are non-empty");
                    for y in 0..d.height() {
                        for x in 0..d.width() {
                            d.set(x, y, w[1].get(x, y) - w[0].get(x, y));
                        }
                    }
                    d
                })
                .collect();
            let (w, h) = (dogs[0].width(), dogs[0].height());
            for layer in 1..dogs.len() - 1 {
                for y in 1..h - 1 {
                    for x in 1..w - 1 {
                        let v = dogs[layer].get(x, y);
                        if v.abs() < CONTRAST_THRESHOLD {
                            continue;
                        }
                        if !is_extremum(&dogs, layer, x, y, v) {
                            continue;
                        }
                        if is_edge_like(&dogs[layer], x, y, EDGE_THRESHOLD) {
                            continue;
                        }
                        let angle = dominant_orientation(&stack[layer], x, y);
                        points.push(ScaleSpacePoint {
                            octave: o,
                            layer,
                            x,
                            y,
                            response: v.abs(),
                            angle,
                        });
                    }
                }
            }
        }
        points.sort_by(|a, b| {
            b.response
                .partial_cmp(&a.response)
                .expect("finite responses")
        });
        points.truncate(N_FEATURES);
        points
    }

    /// Computes the 128-d descriptor of a detected point.
    pub fn describe(&self, space: &ScaleSpace, p: &ScaleSpacePoint) -> VectorDescriptor {
        let img = &space.octaves[p.octave][p.layer];
        let mut hist = [0f32; 128]; // 4x4 cells x 8 bins
        let (sin, cos) = p.angle.sin_cos();
        // 16x16 sampling window rotated by the keypoint angle.
        for wy in -8i32..8 {
            for wx in -8i32..8 {
                // Rotate the offset into image space.
                let rx = cos * wx as f32 - sin * wy as f32;
                let ry = sin * wx as f32 + cos * wy as f32;
                let sx = p.x as i64 + round_i32(rx) as i64;
                let sy = p.y as i64 + round_i32(ry) as i64;
                let gx = img.get_clamped(sx + 1, sy) - img.get_clamped(sx - 1, sy);
                let gy = img.get_clamped(sx, sy + 1) - img.get_clamped(sx, sy - 1);
                let mag = (gx * gx + gy * gy).sqrt();
                // Gradient angle relative to the keypoint orientation.
                let theta = gy.atan2(gx) - p.angle;
                let mut t = theta;
                while t < 0.0 {
                    t += 2.0 * std::f32::consts::PI;
                }
                let bin = ((t / (2.0 * std::f32::consts::PI) * 8.0) as usize).min(7);
                let cell_x = ((wx + 8) / 4) as usize;
                let cell_y = ((wy + 8) / 4) as usize;
                // Gaussian weight over the window.
                let weight = (-((wx * wx + wy * wy) as f32) / (2.0 * 8.0 * 8.0)).exp();
                hist[(cell_y * 4 + cell_x) * 8 + bin] += mag * weight;
            }
        }
        let mut d = VectorDescriptor::from_values(hist.to_vec());
        d.normalize();
        // Clamp large components (illumination robustness) and renormalize.
        let clamped: Vec<f32> = d.values().iter().map(|&v| v.min(0.2)).collect();
        let mut d = VectorDescriptor::from_values(clamped);
        d.normalize();
        d
    }
}

fn is_extremum(dogs: &[GrayF32], layer: usize, x: u32, y: u32, v: f32) -> bool {
    let sign = v > 0.0;
    for l in [layer - 1, layer, layer + 1] {
        for dy in -1i64..=1 {
            for dx in -1i64..=1 {
                if l == layer && dx == 0 && dy == 0 {
                    continue;
                }
                let n = dogs[l].get_clamped(x as i64 + dx, y as i64 + dy);
                if sign && n >= v {
                    return false;
                }
                if !sign && n <= v {
                    return false;
                }
            }
        }
    }
    true
}

fn is_edge_like(dog: &GrayF32, x: u32, y: u32, r: f32) -> bool {
    let (xi, yi) = (x as i64, y as i64);
    let center = dog.get_clamped(xi, yi);
    let dxx = dog.get_clamped(xi + 1, yi) + dog.get_clamped(xi - 1, yi) - 2.0 * center;
    let dyy = dog.get_clamped(xi, yi + 1) + dog.get_clamped(xi, yi - 1) - 2.0 * center;
    let dxy = (dog.get_clamped(xi + 1, yi + 1)
        - dog.get_clamped(xi - 1, yi + 1)
        - dog.get_clamped(xi + 1, yi - 1)
        + dog.get_clamped(xi - 1, yi - 1))
        / 4.0;
    let tr = dxx + dyy;
    let det = dxx * dyy - dxy * dxy;
    if det <= 0.0 {
        return true;
    }
    tr * tr / det >= (r + 1.0) * (r + 1.0) / r
}

/// Returns the dominant gradient orientation from a 36-bin histogram over a
/// 9×9 Gaussian-weighted neighborhood.
fn dominant_orientation(img: &GrayF32, x: u32, y: u32) -> f32 {
    let mut hist = [0f32; 36];
    for dy in -4i64..=4 {
        for dx in -4i64..=4 {
            let sx = x as i64 + dx;
            let sy = y as i64 + dy;
            let gx = img.get_clamped(sx + 1, sy) - img.get_clamped(sx - 1, sy);
            let gy = img.get_clamped(sx, sy + 1) - img.get_clamped(sx, sy - 1);
            let mag = (gx * gx + gy * gy).sqrt();
            let mut theta = gy.atan2(gx);
            if theta < 0.0 {
                theta += 2.0 * std::f32::consts::PI;
            }
            let bin = ((theta / (2.0 * std::f32::consts::PI) * 36.0) as usize).min(35);
            let weight = (-((dx * dx + dy * dy) as f32) / (2.0 * 4.5 * 4.5)).exp();
            hist[bin] += mag * weight;
        }
    }
    let best = hist
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite histogram"))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (best as f32 + 0.5) / 36.0 * 2.0 * std::f32::consts::PI
}

impl FeatureExtractor for Sift {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::Sift
    }

    fn extract_with_stats(&self, img: &GrayImage) -> (ImageFeatures, ExtractionStats) {
        let mut stats = ExtractionStats::default();
        if img.width() < 32 || img.height() < 32 {
            stats.pixels_processed = img.pixel_count();
            return (ImageFeatures::empty_vector(), stats);
        }
        let space = self.scale_space(img);
        stats.pixels_processed = space.total_pixels();
        let points = self.detect(&space);
        let mut keypoints = Vec::with_capacity(points.len());
        let mut descriptors = Vec::with_capacity(points.len());
        for p in &points {
            let scale = space.octave_scales[p.octave];
            keypoints.push(Keypoint {
                x: p.x as f32 * scale,
                y: p.y as f32 * scale,
                response: p.response,
                angle: p.angle,
                octave: p.octave as u8,
                scale,
            });
            descriptors.push(self.describe(&space, p));
        }
        stats.keypoints_described = keypoints.len();
        let features = ImageFeatures {
            keypoints,
            descriptors: Descriptors::Vector(descriptors),
        };
        stats.descriptor_bytes = features.descriptors.byte_size();
        (features, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> GrayImage {
        // Blob-like structures are ideal DoG responders.
        GrayImage::from_fn(128, 128, |x, y| {
            let mut v = 30.0f32;
            for &(cx, cy, r, a) in &[
                (30.0, 30.0, 6.0, 200.0),
                (80.0, 40.0, 9.0, 180.0),
                (50.0, 90.0, 12.0, 220.0),
            ] {
                let d2 = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)) / (r * r);
                v += a * (-d2).exp();
            }
            v.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn detects_blobs() {
        let sift = Sift;
        let f = sift.extract(&blobs());
        assert!(!f.is_empty(), "no SIFT features detected");
        // Keypoints should cluster near the blob centers.
        let near_blob = f.keypoints.iter().filter(|k| {
            [(30.0, 30.0), (80.0, 40.0), (50.0, 90.0)]
                .iter()
                .any(|&(cx, cy)| ((k.x - cx).powi(2) + (k.y - cy).powi(2)).sqrt() < 16.0)
        });
        assert!(near_blob.count() >= 1);
    }

    #[test]
    fn descriptors_are_unit_normalized_128d() {
        let sift = Sift;
        let f = sift.extract(&blobs());
        if let Descriptors::Vector(v) = &f.descriptors {
            for d in v {
                assert_eq!(d.len(), 128);
                let norm: f32 = d.values().iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((norm - 1.0).abs() < 1e-4 || norm == 0.0, "norm {norm}");
            }
        } else {
            panic!("SIFT must produce vector descriptors");
        }
    }

    #[test]
    fn flat_image_has_no_features() {
        let img = GrayImage::from_fn(64, 64, |_, _| 100);
        assert!(Sift.extract(&img).is_empty());
    }

    #[test]
    fn tiny_image_is_rejected_gracefully() {
        let img = GrayImage::from_fn(16, 16, |x, y| ((x * y) % 255) as u8);
        let (f, stats) = Sift.extract_with_stats(&img);
        assert!(f.is_empty());
        assert_eq!(stats.pixels_processed, 256);
    }

    #[test]
    fn scale_space_shapes() {
        let sift = Sift;
        let space = sift.scale_space(&blobs());
        assert!(!space.octaves.is_empty());
        let s = SCALES_PER_OCTAVE as usize;
        for stack in &space.octaves {
            assert_eq!(stack.len(), s + 3);
        }
        // Octave 1 is half size of octave 0.
        if space.octaves.len() > 1 {
            assert_eq!(space.octaves[1][0].width(), space.octaves[0][0].width() / 2);
        }
    }

    #[test]
    fn extraction_is_deterministic() {
        let img = blobs();
        let sift = Sift;
        assert_eq!(sift.extract(&img), sift.extract(&img));
    }

    #[test]
    fn stats_count_scale_space_pixels() {
        let img = blobs();
        let (_, stats) = Sift.extract_with_stats(&img);
        // Scale space is strictly larger than the input image.
        assert!(stats.pixels_processed > img.pixel_count());
    }
}
