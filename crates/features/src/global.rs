//! Global image features: color histograms.
//!
//! The paper's §III-D dismisses global features (color histograms, texture,
//! shape) in favor of local ones because "local features have more robust
//! and higher accuracy than global features for similarity detection" —
//! and its related work describes PhotoNet eliminating redundancy with
//! exactly these histograms. Implementing them makes that design choice
//! testable: the `global_vs_local` experiment measures the precision gap.

use bees_image::RgbImage;

/// Bins per color channel (the histogram has `BINS³` cells).
pub const BINS_PER_CHANNEL: usize = 4;
/// Total histogram cells.
pub const HISTOGRAM_CELLS: usize = BINS_PER_CHANNEL * BINS_PER_CHANNEL * BINS_PER_CHANNEL;

/// A normalized RGB color histogram (sums to 1 for non-empty images).
///
/// # Examples
///
/// ```
/// use bees_features::global::ColorHistogram;
/// use bees_image::{Rgb, RgbImage};
///
/// let red = RgbImage::from_fn(8, 8, |_, _| Rgb::new(255, 0, 0));
/// let blue = RgbImage::from_fn(8, 8, |_, _| Rgb::new(0, 0, 255));
/// let h1 = ColorHistogram::from_image(&red);
/// let h2 = ColorHistogram::from_image(&blue);
/// assert!(h1.intersection(&h1) > 0.99);
/// assert!(h1.intersection(&h2) < 0.01);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ColorHistogram {
    cells: Vec<f32>,
}

impl ColorHistogram {
    /// Computes the histogram of an image.
    pub fn from_image(img: &RgbImage) -> Self {
        let mut counts = vec![0u32; HISTOGRAM_CELLS];
        let shift = 8 - BINS_PER_CHANNEL.trailing_zeros() as usize; // 256 -> BINS
        for p in img.pixels() {
            let r = (p.r as usize) >> shift;
            let g = (p.g as usize) >> shift;
            let b = (p.b as usize) >> shift;
            counts[(r * BINS_PER_CHANNEL + g) * BINS_PER_CHANNEL + b] += 1;
        }
        let total = img.pixel_count().max(1) as f32;
        ColorHistogram {
            cells: counts.into_iter().map(|c| c as f32 / total).collect(),
        }
    }

    /// Histogram intersection similarity in `[0, 1]`:
    /// `Σ min(h1_i, h2_i)` — 1 for identical distributions.
    pub fn intersection(&self, other: &ColorHistogram) -> f64 {
        self.cells
            .iter()
            .zip(&other.cells)
            .map(|(a, b)| a.min(*b) as f64)
            .sum()
    }

    /// Wire size in bytes (PhotoNet uploads these instead of images).
    pub const WIRE_SIZE: usize = HISTOGRAM_CELLS * 4;

    /// Borrow the normalized cells.
    pub fn cells(&self) -> &[f32] {
        &self.cells
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_image::Rgb;

    fn gradient() -> RgbImage {
        RgbImage::from_fn(32, 32, |x, y| Rgb::new((x * 8) as u8, (y * 8) as u8, 128))
    }

    #[test]
    fn histogram_is_normalized() {
        let h = ColorHistogram::from_image(&gradient());
        let sum: f32 = h.cells().iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert_eq!(h.cells().len(), 64);
    }

    #[test]
    fn intersection_is_reflexive_and_symmetric() {
        let a = ColorHistogram::from_image(&gradient());
        let b = ColorHistogram::from_image(&RgbImage::from_fn(32, 32, |x, _| {
            Rgb::new(255 - (x * 8) as u8, 0, 0)
        }));
        assert!((a.intersection(&a) - 1.0).abs() < 1e-5);
        assert!((a.intersection(&b) - b.intersection(&a)).abs() < 1e-9);
        assert!(a.intersection(&b) < a.intersection(&a));
    }

    #[test]
    fn brightness_shift_confuses_global_features() {
        // The weakness the paper exploits: a global histogram is fragile to
        // photometric changes that local descriptors shrug off.
        let img = gradient();
        let brighter = RgbImage::from_fn(32, 32, |x, y| {
            let p = img.get(x, y);
            Rgb::new(
                p.r.saturating_add(70),
                p.g.saturating_add(70),
                p.b.saturating_add(70),
            )
        });
        let h1 = ColorHistogram::from_image(&img);
        let h2 = ColorHistogram::from_image(&brighter);
        assert!(
            h1.intersection(&h2) < 0.8,
            "histograms should drift badly under brightness shifts: {}",
            h1.intersection(&h2)
        );
    }
}
