//! Keypoints: locations of interest detected in an image.

/// A detected interest point, expressed in the coordinates of the *original*
/// image (pyramid detections are mapped back by their level scale).
///
/// # Examples
///
/// ```
/// use bees_features::Keypoint;
///
/// let kp = Keypoint::new(10.0, 20.0);
/// assert_eq!(kp.x, 10.0);
/// assert_eq!(kp.octave, 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Keypoint {
    /// Column in the original image.
    pub x: f32,
    /// Row in the original image.
    pub y: f32,
    /// Detector response (Harris score for ORB, DoG contrast for SIFT);
    /// larger is stronger.
    pub response: f32,
    /// Patch orientation in radians, in `(-PI, PI]`.
    pub angle: f32,
    /// Pyramid level (ORB) or octave (SIFT) the point was detected at.
    pub octave: u8,
    /// Scale factor of that level relative to the original image (>= 1).
    pub scale: f32,
}

impl Keypoint {
    /// Creates a keypoint at `(x, y)` on the base level with zero response
    /// and orientation.
    pub fn new(x: f32, y: f32) -> Self {
        Keypoint {
            x,
            y,
            response: 0.0,
            angle: 0.0,
            octave: 0,
            scale: 1.0,
        }
    }

    /// Serialized size in bytes when uploading keypoint geometry alongside
    /// descriptors (x, y as f32 plus angle as a quantized byte and the
    /// octave byte).
    pub const WIRE_SIZE: usize = 4 + 4 + 1 + 1;
}

impl Default for Keypoint {
    fn default() -> Self {
        Keypoint::new(0.0, 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_new_origin() {
        assert_eq!(Keypoint::default(), Keypoint::new(0.0, 0.0));
    }
}
