use crate::{pixel_len, round_u8, ImageError, Result};

/// An owned 8-bit grayscale image stored in row-major order.
///
/// This is the workhorse type of the reproduction: feature extraction, bitmap
/// compression, and similarity metrics all operate on `GrayImage`s, mirroring
/// how the BEES prototype feeds luminance data to OpenCV.
///
/// # Examples
///
/// ```
/// use bees_image::GrayImage;
///
/// let img = GrayImage::from_fn(4, 2, |x, y| (x + 10 * y) as u8);
/// assert_eq!(img.get(3, 1), 13);
/// assert_eq!(img.pixels().len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GrayImage {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl GrayImage {
    /// Creates a black (all-zero) image of the given size.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if either dimension is zero
    /// or the pixel buffer would overflow an allocation.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Ok(GrayImage {
            width,
            height,
            data: vec![0; pixel_len::<u8>(width, height)?],
        })
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero or overflowing
    /// dimensions and [`ImageError::BufferSizeMismatch`] if
    /// `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Result<Self> {
        let expected = pixel_len::<u8>(width, height)?;
        if data.len() != expected {
            return Err(ImageError::BufferSizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(GrayImage {
            width,
            height,
            data,
        })
    }

    /// Builds an image by evaluating `f(x, y)` for every pixel.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero; use [`GrayImage::new`] for fallible
    /// construction.
    pub fn from_fn<F: FnMut(u32, u32) -> u8>(width: u32, height: u32, mut f: F) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be non-zero");
        let mut data = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        GrayImage {
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

    /// Total number of pixels (`width * height`).
    #[inline]
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> u8 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Pixel value with coordinates clamped to the image border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> u8 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.data[cy * self.width as usize + cx]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `(x, y)` is out of bounds.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: u8) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize] = value;
    }

    /// Immutable view of the row-major pixel buffer.
    #[inline]
    pub fn pixels(&self) -> &[u8] {
        &self.data
    }

    /// One row of pixels.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[inline]
    pub fn row(&self, y: u32) -> &[u8] {
        assert!(y < self.height, "row {y} out of bounds");
        let w = self.width as usize;
        &self.data[y as usize * w..(y as usize + 1) * w]
    }

    /// Consumes the image and returns the underlying pixel buffer.
    pub fn into_raw(self) -> Vec<u8> {
        self.data
    }

    /// Mean pixel intensity in `[0, 255]`.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&p| p as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Converts to a floating-point image (values keep the `[0, 255]` range).
    pub fn to_f32(&self) -> GrayF32 {
        GrayF32 {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| p as f32).collect(),
        }
    }
}

/// A floating-point grayscale image used for filter pipelines (blur, DoG
/// pyramids) where 8-bit rounding would destroy the signal.
///
/// Values are nominally in `[0, 255]` but are not clamped by arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct GrayF32 {
    pub(crate) width: u32,
    pub(crate) height: u32,
    pub(crate) data: Vec<f32>,
}

impl GrayF32 {
    /// Creates an all-zero floating-point image.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] if either dimension is zero
    /// or the sample buffer would overflow an allocation.
    pub fn new(width: u32, height: u32) -> Result<Self> {
        Ok(GrayF32 {
            width,
            height,
            data: vec![0.0; pixel_len::<f32>(width, height)?],
        })
    }

    /// Wraps an existing row-major sample buffer.
    ///
    /// # Errors
    ///
    /// Returns [`ImageError::InvalidDimensions`] for zero or overflowing
    /// dimensions and [`ImageError::BufferSizeMismatch`] if
    /// `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<f32>) -> Result<Self> {
        let expected = pixel_len::<f32>(width, height)?;
        if data.len() != expected {
            return Err(ImageError::BufferSizeMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(GrayF32 {
            width,
            height,
            data,
        })
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

    /// Pixel value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Pixel value with coordinates clamped to the border.
    #[inline]
    pub fn get_clamped(&self, x: i64, y: i64) -> f32 {
        let cx = x.clamp(0, self.width as i64 - 1) as usize;
        let cy = y.clamp(0, self.height as i64 - 1) as usize;
        self.data[cy * self.width as usize + cx]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: f32) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y as usize * self.width as usize + x as usize] = value;
    }

    /// Immutable view of the row-major buffer.
    #[inline]
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Rounds and clamps back to an 8-bit image.
    pub fn to_u8(&self) -> GrayImage {
        GrayImage {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&p| round_u8(p)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_rejects_zero_dimensions() {
        assert!(GrayImage::new(0, 4).is_err());
        assert!(GrayImage::new(4, 0).is_err());
        assert!(GrayF32::new(0, 0).is_err());
    }

    #[test]
    fn from_raw_checks_buffer_length() {
        assert!(GrayImage::from_raw(3, 3, vec![0; 8]).is_err());
        assert!(GrayImage::from_raw(3, 3, vec![0; 9]).is_ok());
    }

    #[test]
    fn get_set_roundtrip() {
        let mut img = GrayImage::new(5, 4).unwrap();
        img.set(2, 3, 77);
        assert_eq!(img.get(2, 3), 77);
    }

    #[test]
    fn clamped_access_extends_border() {
        let img = GrayImage::from_fn(3, 3, |x, y| (x + 3 * y) as u8);
        assert_eq!(img.get_clamped(-5, -5), img.get(0, 0));
        assert_eq!(img.get_clamped(10, 10), img.get(2, 2));
    }

    #[test]
    fn mean_of_constant_image() {
        let img = GrayImage::from_fn(8, 8, |_, _| 42);
        assert!((img.mean() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn f32_roundtrip_clamps() {
        let mut f = GrayF32::new(2, 1).unwrap();
        f.set(0, 0, -5.0);
        f.set(1, 0, 300.0);
        let u = f.to_u8();
        assert_eq!(u.get(0, 0), 0);
        assert_eq!(u.get(1, 0), 255);
    }

    #[test]
    fn row_view_matches_get() {
        let img = GrayImage::from_fn(4, 3, |x, y| (x + y * 4) as u8);
        assert_eq!(img.row(1), &[4, 5, 6, 7]);
    }
}
