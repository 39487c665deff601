//! Image-quality metrics: MSE, PSNR, and SSIM.
//!
//! BEES evaluates quality compression with the Structural SIMilarity index
//! (Wang et al., 2004) in Fig. 5(a). This module implements the standard
//! Gaussian-weighted SSIM (σ = 1.5, C1 = (0.01·255)², C2 = (0.03·255)²)
//! averaged over the whole image.

use crate::blur::{convolve_separable, gaussian_kernel};
use crate::{GrayF32, GrayImage, ImageError, Result};

/// Mean squared error between two equally sized images.
///
/// # Errors
///
/// Returns [`ImageError::DimensionMismatch`] when shapes differ.
///
/// # Examples
///
/// ```
/// use bees_image::{GrayImage, metrics};
///
/// # fn main() -> Result<(), bees_image::ImageError> {
/// let a = GrayImage::from_fn(4, 4, |_, _| 10);
/// let b = GrayImage::from_fn(4, 4, |_, _| 13);
/// assert_eq!(metrics::mse(&a, &b)?, 9.0);
/// # Ok(())
/// # }
/// ```
pub fn mse(a: &GrayImage, b: &GrayImage) -> Result<f64> {
    check_dims(a, b)?;
    let sum: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum();
    Ok(sum / a.pixel_count() as f64)
}

/// Peak signal-to-noise ratio in decibels; `f64::INFINITY` for identical
/// images.
///
/// # Errors
///
/// Returns [`ImageError::DimensionMismatch`] when shapes differ.
pub fn psnr(a: &GrayImage, b: &GrayImage) -> Result<f64> {
    let e = mse(a, b)?;
    if e == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (255.0f64 * 255.0 / e).log10())
}

/// Structural similarity index in `[-1, 1]` (1 means identical).
///
/// Uses the canonical Gaussian window (σ = 1.5) over luminance, computing
/// local means, variances, and covariance by Gaussian filtering and averaging
/// the per-pixel SSIM map.
///
/// # Errors
///
/// Returns [`ImageError::DimensionMismatch`] when shapes differ.
///
/// # Examples
///
/// ```
/// use bees_image::{GrayImage, metrics};
///
/// # fn main() -> Result<(), bees_image::ImageError> {
/// let img = GrayImage::from_fn(32, 32, |x, y| ((x * y) % 256) as u8);
/// assert!((metrics::ssim(&img, &img)? - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn ssim(a: &GrayImage, b: &GrayImage) -> Result<f64> {
    check_dims(a, b)?;
    const SIGMA: f64 = 1.5;
    const C1: f64 = (0.01 * 255.0) * (0.01 * 255.0);
    const C2: f64 = (0.03 * 255.0) * (0.03 * 255.0);

    // Each input plane (a, b, a², b² or ab) is built, blurred and dropped
    // in turn, so a call holds one unblurred plane at a time, not five.
    let kernel = gaussian_kernel(SIGMA)?;
    let blurred = |p: &GrayImage, q: Option<&GrayImage>| {
        let plane = match q {
            None => p.to_f32(),
            Some(q) => {
                let pairs = p.pixels().iter().zip(q.pixels());
                GrayF32 {
                    width: p.width(),
                    height: p.height(),
                    data: pairs.map(|(&x, &y)| x as f32 * y as f32).collect(),
                }
            }
        };
        convolve_separable(&plane, &kernel)
    };
    let (mu_a, mu_b) = (blurred(a, None), blurred(b, None));
    let (mu_aa, mu_bb, mu_ab) = (
        blurred(a, Some(a)),
        blurred(b, Some(b)),
        blurred(a, Some(b)),
    );

    let mut total = 0.0f64;
    let means = mu_a.data.iter().zip(&mu_b.data);
    let moments = mu_aa.data.iter().zip(&mu_bb.data).zip(&mu_ab.data);
    for ((&ma, &mb), ((&maa, &mbb), &mab)) in means.zip(moments) {
        let (ma, mb) = (ma as f64, mb as f64);
        let va = (maa as f64 - ma * ma).max(0.0);
        let vb = (mbb as f64 - mb * mb).max(0.0);
        let cov = mab as f64 - ma * mb;
        let s =
            ((2.0 * ma * mb + C1) * (2.0 * cov + C2)) / ((ma * ma + mb * mb + C1) * (va + vb + C2));
        total += s;
    }
    Ok(total / a.pixel_count() as f64)
}

fn check_dims(a: &GrayImage, b: &GrayImage) -> Result<()> {
    if a.dimensions() != b.dimensions() {
        return Err(ImageError::DimensionMismatch {
            first: a.dimensions(),
            second: b.dimensions(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_image() -> GrayImage {
        GrayImage::from_fn(48, 48, |x, y| (((x * 13) ^ (y * 7)) % 256) as u8)
    }

    #[test]
    fn mse_rejects_mismatched_shapes() {
        let a = GrayImage::from_fn(4, 4, |_, _| 0);
        let b = GrayImage::from_fn(4, 5, |_, _| 0);
        assert!(mse(&a, &b).is_err());
        assert!(ssim(&a, &b).is_err());
    }

    #[test]
    fn psnr_identical_is_infinite() {
        let a = test_image();
        assert!(psnr(&a, &a).unwrap().is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = test_image();
        let noisy1 =
            GrayImage::from_fn(48, 48, |x, y| a.get(x, y).wrapping_add(((x + y) % 3) as u8));
        let noisy2 = GrayImage::from_fn(48, 48, |x, y| {
            a.get(x, y).wrapping_add(((x + y) % 23) as u8)
        });
        assert!(psnr(&a, &noisy1).unwrap() > psnr(&a, &noisy2).unwrap());
    }

    #[test]
    fn ssim_identical_is_one() {
        let a = test_image();
        assert!((ssim(&a, &a).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ssim_is_symmetric() {
        let a = test_image();
        let b = GrayImage::from_fn(48, 48, |x, y| a.get(x, y) / 2 + 40);
        let s1 = ssim(&a, &b).unwrap();
        let s2 = ssim(&b, &a).unwrap();
        assert!((s1 - s2).abs() < 1e-9);
    }

    #[test]
    fn ssim_orders_degradations() {
        let a = test_image();
        let mild = GrayImage::from_fn(48, 48, |x, y| {
            (a.get(x, y) as i32 + ((x * 3 + y) % 7) as i32 - 3).clamp(0, 255) as u8
        });
        let harsh = GrayImage::from_fn(48, 48, |x, y| {
            (a.get(x, y) as i32 + ((x * 31 + y * 17) % 121) as i32 - 60).clamp(0, 255) as u8
        });
        let s_mild = ssim(&a, &mild).unwrap();
        let s_harsh = ssim(&a, &harsh).unwrap();
        assert!(
            s_mild > s_harsh,
            "mild {s_mild} should beat harsh {s_harsh}"
        );
        assert!(s_mild > 0.8);
    }

    #[test]
    fn ssim_of_inverted_image_is_low() {
        let a = test_image();
        let inv = GrayImage::from_fn(48, 48, |x, y| 255 - a.get(x, y));
        assert!(ssim(&a, &inv).unwrap() < 0.2);
    }
}
