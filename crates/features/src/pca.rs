//! PCA-SIFT (Ke & Sukthankar, CVPR 2004).
//!
//! PCA-SIFT keeps SIFT's detector but replaces the 128-d histogram
//! descriptor with a gradient *patch* projected onto a low-dimensional PCA
//! basis — 36 dimensions in the paper, which is why Table I reports
//! PCA-SIFT features at 25 % of SIFT's size (36·4 bytes vs 128·4 bytes).
//! The paper also notes PCA-SIFT "increases the time of computing features",
//! which the energy model reflects.
//!
//! The projection is a deterministic random orthonormal basis
//! ([`PcaSift::with_seeded_basis`]): Gram–Schmidt over seeded Gaussian
//! vectors, a Johnson–Lindenstrauss-style projection that approximately
//! preserves patch distances. There is no training pass and no
//! eigensolver; PCA-SIFT is a comparator here, and a seeded basis keeps
//! its descriptor size and cost while every run stays reproducible.

use crate::descriptor::{Descriptors, ImageFeatures, VectorDescriptor};
use crate::extractor::{ExtractionStats, ExtractorKind, FeatureExtractor};
use crate::keypoint::Keypoint;
use crate::sift::{ScaleSpacePoint, Sift};
use bees_image::{GrayF32, GrayImage};
use bees_rng::ChaCha8Rng;

/// Half-width of the gradient patch: a (2·9+1)² window minus the border
/// gives 9×9 gradient samples per axis.
const PATCH_HALF: i64 = 4;
/// Gradient samples per axis (9×9 window).
const PATCH_SIDE: usize = (2 * PATCH_HALF + 1) as usize;
/// Raw gradient-vector dimensionality (gx and gy per sample).
pub const RAW_DIM: usize = PATCH_SIDE * PATCH_SIDE * 2;
/// Output dimensionality after projection (36 in the paper).
const OUT_DIM: usize = 36;

/// A seeded PCA projection: `out_dim` orthonormal rows of length
/// [`RAW_DIM`].
#[derive(Debug, Clone)]
pub struct PcaBasis {
    rows: Vec<Vec<f32>>,
}

impl PcaBasis {
    /// Builds a deterministic random orthonormal basis (Gram–Schmidt over
    /// seeded Gaussian vectors). A Johnson–Lindenstrauss-style projection:
    /// distances are approximately preserved without a training pass.
    pub fn seeded(seed: u64, out_dim: usize) -> Self {
        assert!(
            out_dim <= RAW_DIM,
            "cannot keep more components than the raw dimension"
        );
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rows: Vec<Vec<f32>> = Vec::with_capacity(out_dim);
        while rows.len() < out_dim {
            let mut v: Vec<f32> = (0..RAW_DIM)
                .map(|_| {
                    // Box-Muller.
                    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
                    let u2: f32 = rng.gen_range(0.0..1.0);
                    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
                })
                .collect();
            // Gram-Schmidt against the accepted rows.
            for r in &rows {
                let dot: f32 = v.iter().zip(r).map(|(a, b)| a * b).sum();
                for (x, y) in v.iter_mut().zip(r) {
                    *x -= dot * y;
                }
            }
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            if norm > 1e-4 {
                for x in &mut v {
                    *x /= norm;
                }
                rows.push(v);
            }
        }
        PcaBasis { rows }
    }

    /// Projects a raw gradient vector onto the basis.
    ///
    /// # Panics
    ///
    /// Panics if `raw.len() != RAW_DIM`.
    pub fn project(&self, raw: &[f32]) -> Vec<f32> {
        assert_eq!(raw.len(), RAW_DIM, "raw vector has wrong dimensionality");
        self.rows
            .iter()
            .map(|row| row.iter().zip(raw).map(|(w, x)| w * x).sum())
            .collect()
    }
}

/// The PCA-SIFT feature extractor.
///
/// # Examples
///
/// ```
/// use bees_features::pca::PcaSift;
/// use bees_features::FeatureExtractor;
/// use bees_image::GrayImage;
///
/// let img = GrayImage::from_fn(96, 96, |x, y| {
///     if ((x / 12) + (y / 12)) % 2 == 0 { 200 } else { 40 }
/// });
/// let pca = PcaSift::with_seeded_basis(1);
/// let f = pca.extract(&img);
/// for kp in &f.keypoints {
///     assert!(kp.x < 96.0 + 1.0);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct PcaSift {
    basis: PcaBasis,
}

impl PcaSift {
    /// Creates an extractor with a deterministic seeded orthonormal basis.
    pub fn with_seeded_basis(seed: u64) -> Self {
        PcaSift {
            basis: PcaBasis::seeded(seed, OUT_DIM),
        }
    }
}

/// Samples a rotated, normalized gradient patch around `(x, y)`.
fn gradient_patch(img: &GrayF32, x: u32, y: u32, angle: f32) -> Vec<f32> {
    let (sin, cos) = angle.sin_cos();
    let mut raw = Vec::with_capacity(RAW_DIM);
    for wy in -PATCH_HALF..=PATCH_HALF {
        for wx in -PATCH_HALF..=PATCH_HALF {
            let rx = cos * wx as f32 - sin * wy as f32;
            let ry = sin * wx as f32 + cos * wy as f32;
            let sx = x as i64 + rx.round() as i64;
            let sy = y as i64 + ry.round() as i64;
            let gx = img.get_clamped(sx + 1, sy) - img.get_clamped(sx - 1, sy);
            let gy = img.get_clamped(sx, sy + 1) - img.get_clamped(sx, sy - 1);
            // Rotate the gradient into the keypoint frame.
            raw.push(cos * gx + sin * gy);
            raw.push(-sin * gx + cos * gy);
        }
    }
    // Normalize for illumination invariance.
    let norm: f32 = raw.iter().map(|v| v * v).sum::<f32>().sqrt();
    if norm > 0.0 {
        for v in &mut raw {
            *v /= norm;
        }
    }
    raw
}

impl FeatureExtractor for PcaSift {
    fn kind(&self) -> ExtractorKind {
        ExtractorKind::PcaSift
    }

    fn extract_with_stats(&self, img: &GrayImage) -> (ImageFeatures, ExtractionStats) {
        let mut stats = ExtractionStats::default();
        if img.width() < 32 || img.height() < 32 {
            stats.pixels_processed = img.pixel_count();
            return (ImageFeatures::empty_vector(), stats);
        }
        let space = Sift.scale_space(img);
        // PCA-SIFT does the full SIFT detection *plus* a projection per
        // keypoint; count the scale-space work once.
        stats.pixels_processed = space.total_pixels();
        let points: Vec<ScaleSpacePoint> = Sift.detect(&space);
        let mut keypoints = Vec::with_capacity(points.len());
        let mut descriptors = Vec::with_capacity(points.len());
        for p in &points {
            let raw = gradient_patch(&space.octaves[p.octave][p.layer], p.x, p.y, p.angle);
            let mut d = VectorDescriptor::from_values(self.basis.project(&raw));
            d.normalize();
            let scale = space.octave_scales[p.octave];
            keypoints.push(Keypoint {
                x: p.x as f32 * scale,
                y: p.y as f32 * scale,
                response: p.response,
                angle: p.angle,
                octave: p.octave as u8,
                scale,
            });
            descriptors.push(d);
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

    fn scene() -> GrayImage {
        GrayImage::from_fn(96, 96, |x, y| {
            let mut v = 40.0f32;
            for &(cx, cy, r, a) in &[(25.0, 25.0, 5.0, 180.0), (60.0, 70.0, 8.0, 200.0)] {
                let d2 = ((x as f32 - cx).powi(2) + (y as f32 - cy).powi(2)) / (r * r);
                v += a * (-d2).exp();
            }
            v.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn seeded_basis_is_orthonormal() {
        let basis = PcaBasis::seeded(42, 36);
        assert_eq!(basis.rows.len(), 36);
        let rows = &basis.rows;
        for i in 0..36 {
            for j in i..36 {
                let dot: f64 = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-4, "({i},{j}) dot {dot}");
            }
        }
    }

    #[test]
    fn descriptors_have_configured_dimension() {
        let pca = PcaSift::with_seeded_basis(7);
        let f = pca.extract(&scene());
        if let Descriptors::Vector(v) = &f.descriptors {
            for d in v {
                assert_eq!(d.len(), 36);
            }
        } else {
            panic!("PCA-SIFT must produce vector descriptors");
        }
    }

    #[test]
    fn pca_descriptor_is_smaller_than_sift() {
        let img = scene();
        let pca = PcaSift::with_seeded_basis(7);
        let sift = Sift;
        let fp = pca.extract(&img);
        let fs = sift.extract(&img);
        if fp.is_empty() || fs.is_empty() {
            return; // no features in this tiny scene on some configs
        }
        let per_kp_pca = fp.descriptors.byte_size() as f64 / fp.len() as f64;
        let per_kp_sift = fs.descriptors.byte_size() as f64 / fs.len() as f64;
        // 36-d vs 128-d: ~28 % (Table I reports 25 %).
        assert!((per_kp_pca / per_kp_sift - 36.0 / 128.0).abs() < 1e-9);
    }

    #[test]
    fn projection_rejects_wrong_dimension() {
        let basis = PcaBasis::seeded(1, 4);
        let result = std::panic::catch_unwind(|| basis.project(&[0.0; 3]));
        assert!(result.is_err());
    }

    #[test]
    fn gradient_patch_is_unit_norm() {
        let img = scene().to_f32();
        let raw = gradient_patch(&img, 25, 25, 0.7);
        assert_eq!(raw.len(), RAW_DIM);
        let norm: f32 = raw.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-4 || norm == 0.0);
    }
}
