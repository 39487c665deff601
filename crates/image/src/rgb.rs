use crate::{pixel_len, round_u8, GrayImage, Result};

/// An 8-bit RGB pixel.
///
/// # Examples
///
/// ```
/// use bees_image::Rgb;
///
/// let p = Rgb::new(255, 128, 0);
/// assert_eq!(p.r, 255);
/// assert!(p.luma() > 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel from its three channels.
    #[inline]
    pub fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// ITU-R BT.601 luma, the grayscale value used throughout the pipeline.
    #[inline]
    pub fn luma(self) -> u8 {
        round_u8(0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32)
    }

    /// Converts to YCbCr (BT.601, full range) as used by the DCT codec.
    #[inline]
    pub fn to_ycbcr(self) -> (f32, f32, f32) {
        let (r, g, b) = (self.r as f32, self.g as f32, self.b as f32);
        let y = 0.299 * r + 0.587 * g + 0.114 * b;
        let cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
        let cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
        (y, cb, cr)
    }

    /// Builds a pixel from YCbCr components, clamping to the 8-bit range.
    #[inline]
    pub fn from_ycbcr(y: f32, cb: f32, cr: f32) -> Self {
        let r = y + 1.402 * (cr - 128.0);
        let g = y - 0.344_136 * (cb - 128.0) - 0.714_136 * (cr - 128.0);
        let b = y + 1.772 * (cb - 128.0);
        Rgb {
            r: round_u8(r),
            g: round_u8(g),
            b: round_u8(b),
        }
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(v: [u8; 3]) -> Self {
        Rgb::new(v[0], v[1], v[2])
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(p: Rgb) -> Self {
        [p.r, p.g, p.b]
    }
}

/// An owned 8-bit RGB image stored in row-major order.
///
/// # Examples
///
/// ```
/// use bees_image::{Rgb, RgbImage};
///
/// let img = RgbImage::from_fn(8, 8, |x, _| Rgb::new(x as u8 * 30, 0, 0));
/// let gray = img.to_gray();
/// assert_eq!(gray.dimensions(), (8, 8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RgbImage {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) data: Vec<Rgb>,
}

impl RgbImage {
    /// Creates a black image of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`](crate::ImageError) if
    /// either dimension is zero or the pixel buffer would overflow an
    /// allocation.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Ok(RgbImage {
            width,
            height,
            data: vec![Rgb::default(); pixel_len::<Rgb>(width, height)?],
        })
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn from_fn<F: FnMut(u32, u32) -> Rgb>(width: u32, height: u32, mut f: F) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let mut data = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        RgbImage {
            width,
            height,
            data,
        }
    }

    /// Width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dimensions(&self) -> (u32, u32) {
        (self.width, self.height)
    }

    /// Total number of pixels.
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Rgb {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: Rgb) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize] = value;
    }

    /// Immutable view of the row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[Rgb] {
        &self.data
    }

    /// Converts to grayscale using BT.601 luma.
    pub fn to_gray(&self) -> GrayImage {
        let data = self.data.iter().map(|p| p.luma()).collect();
        GrayImage::from_raw(self.width, self.height, data).expect("same dimensions")
    }

    /// Uncompressed size in bytes (3 bytes per pixel); the "raw image size"
    /// baseline used when reporting bandwidth overheads.
    #[inline]
    pub fn raw_byte_size(&self) -> usize {
        self.data.len() * 3
    }
}

impl From<&GrayImage> for RgbImage {
    fn from(g: &GrayImage) -> Self {
        RgbImage::from_fn(g.width(), g.height(), |x, y| {
            let v = g.get(x, y);
            Rgb::new(v, v, v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycbcr_roundtrip_is_close() {
        for &(r, g, b) in &[
            (0u8, 0u8, 0u8),
            (255, 255, 255),
            (200, 30, 90),
            (12, 250, 128),
        ] {
            let p = Rgb::new(r, g, b);
            let (y, cb, cr) = p.to_ycbcr();
            let q = Rgb::from_ycbcr(y, cb, cr);
            assert!((p.r as i32 - q.r as i32).abs() <= 1, "{p:?} vs {q:?}");
            assert!((p.g as i32 - q.g as i32).abs() <= 1);
            assert!((p.b as i32 - q.b as i32).abs() <= 1);
        }
    }

    #[test]
    fn luma_of_gray_pixel_is_identity() {
        for v in [0u8, 17, 128, 255] {
            assert_eq!(Rgb::new(v, v, v).luma(), v);
        }
    }

    #[test]
    fn gray_conversion_preserves_dimensions() {
        let img = RgbImage::from_fn(7, 5, |x, y| Rgb::new(x as u8, y as u8, 0));
        assert_eq!(img.to_gray().dimensions(), (7, 5));
    }

    #[test]
    fn rgb_from_gray_is_achromatic() {
        let g = GrayImage::from_fn(3, 3, |x, y| (40 * x + y) as u8);
        let c = RgbImage::from(&g);
        let p = c.get(2, 1);
        assert_eq!(p.r, p.g);
        assert_eq!(p.g, p.b);
        assert_eq!(p.r, g.get(2, 1));
    }

    #[test]
    fn raw_byte_size_counts_three_channels() {
        let img = RgbImage::new(10, 10).unwrap();
        assert_eq!(img.raw_byte_size(), 300);
    }

    #[test]
    fn array_conversions() {
        let p: Rgb = [1u8, 2, 3].into();
        let a: [u8; 3] = p.into();
        assert_eq!(a, [1, 2, 3]);
    }
}
