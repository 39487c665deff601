//! Feature descriptors and per-image feature sets.

use crate::block::DescriptorBlock;
use crate::keypoint::Keypoint;

/// A 256-bit binary descriptor (ORB / rBRIEF).
///
/// Each ORB feature is "described by 256 binary digits" (paper §III-D);
/// distances are Hamming distances computed with hardware popcount.
///
/// # Examples
///
/// ```
/// use bees_features::BinaryDescriptor;
///
/// let a = BinaryDescriptor::from_bytes([0u8; 32]);
/// let mut bytes = [0u8; 32];
/// bytes[0] = 0b1010_1010;
/// let b = BinaryDescriptor::from_bytes(bytes);
/// assert_eq!(a.hamming_distance(&b), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinaryDescriptor {
    bits: [u8; 32],
}

impl BinaryDescriptor {
    /// Number of bits in the descriptor.
    pub const BITS: usize = 256;
    /// Number of bytes in the descriptor.
    pub const BYTES: usize = 32;

    /// Wraps raw descriptor bytes.
    pub fn from_bytes(bits: [u8; 32]) -> Self {
        BinaryDescriptor { bits }
    }

    /// Creates the all-zero descriptor (used as a builder starting point).
    pub fn zero() -> Self {
        BinaryDescriptor { bits: [0; 32] }
    }

    /// Sets bit `i` (0-based, `i < 256`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub fn set_bit(&mut self, i: usize) {
        assert!(i < Self::BITS, "bit index {i} out of range");
        self.bits[i / 8] |= 1 << (i % 8);
    }

    /// Tests bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 256`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < Self::BITS, "bit index {i} out of range");
        self.bits[i / 8] & (1 << (i % 8)) != 0
    }

    /// Raw bytes of the descriptor.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.bits
    }

    /// Hamming distance (number of differing bits) to another descriptor.
    #[inline]
    pub fn hamming_distance(&self, other: &BinaryDescriptor) -> u32 {
        let mut dist = 0u32;
        for i in 0..4 {
            let a = u64::from_le_bytes(self.bits[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
            let b = u64::from_le_bytes(other.bits[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
            dist += (a ^ b).count_ones();
        }
        dist
    }

    /// Extracts the `chunk`-th 64-bit word (0..4), used by the multi-index
    /// hashing accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `chunk >= 4`.
    #[inline]
    pub fn word(&self, chunk: usize) -> u64 {
        assert!(chunk < 4, "chunk index {chunk} out of range");
        u64::from_le_bytes(
            self.bits[chunk * 8..(chunk + 1) * 8]
                .try_into()
                .expect("8 bytes"),
        )
    }
}

/// A real-valued descriptor (SIFT: 128-d, PCA-SIFT: 36-d).
#[derive(Debug, Clone, PartialEq)]
pub struct VectorDescriptor {
    values: Vec<f32>,
}

impl VectorDescriptor {
    /// Wraps a descriptor vector.
    pub fn from_values(values: Vec<f32>) -> Self {
        VectorDescriptor { values }
    }

    /// Dimensionality of the descriptor.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the descriptor is empty (zero-dimensional).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the raw values.
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Squared Euclidean distance to another descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn l2_squared(&self, other: &VectorDescriptor) -> f32 {
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "descriptor dimensions differ"
        );
        self.values
            .iter()
            .zip(&other.values)
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Euclidean distance to another descriptor.
    ///
    /// # Panics
    ///
    /// Panics if the dimensionalities differ.
    pub fn l2(&self, other: &VectorDescriptor) -> f32 {
        self.l2_squared(other).sqrt()
    }

    /// Normalizes the vector to unit length (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let norm: f32 = self.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
    }
}

/// The descriptors of one image: either binary (ORB) or real-valued
/// (SIFT / PCA-SIFT). A single image never mixes the two.
#[derive(Debug, Clone, PartialEq)]
pub enum Descriptors {
    /// 256-bit binary descriptors, stored as one flat word block that the
    /// matcher, the index backends and the SSMM stage scan directly.
    Binary(DescriptorBlock),
    /// Real-valued descriptors of a fixed dimensionality.
    Vector(Vec<VectorDescriptor>),
}

impl Descriptors {
    /// Number of descriptors.
    pub fn len(&self) -> usize {
        match self {
            Descriptors::Binary(v) => v.len(),
            Descriptors::Vector(v) => v.len(),
        }
    }

    /// Whether there are no descriptors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialized payload size in bytes (what feature upload costs): 32
    /// bytes per binary descriptor, 4 bytes per vector component.
    pub fn byte_size(&self) -> usize {
        match self {
            Descriptors::Binary(v) => v.len() * BinaryDescriptor::BYTES,
            Descriptors::Vector(v) => v.iter().map(|d| d.len() * 4).sum(),
        }
    }
}

/// The complete feature set of one image: keypoints plus descriptors,
/// aligned index-by-index.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageFeatures {
    /// Keypoints in original-image coordinates.
    pub keypoints: Vec<Keypoint>,
    /// One descriptor per keypoint.
    pub descriptors: Descriptors,
}

impl ImageFeatures {
    /// Creates an empty binary feature set.
    pub fn empty_binary() -> Self {
        ImageFeatures {
            keypoints: Vec::new(),
            descriptors: Descriptors::Binary(DescriptorBlock::new()),
        }
    }

    /// Creates an empty vector feature set.
    pub fn empty_vector() -> Self {
        ImageFeatures {
            keypoints: Vec::new(),
            descriptors: Descriptors::Vector(Vec::new()),
        }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.keypoints.len()
    }

    /// Whether the set has no features.
    pub fn is_empty(&self) -> bool {
        self.keypoints.is_empty()
    }

    /// Total wire size in bytes when uploading this feature set for
    /// redundancy detection (descriptors plus keypoint geometry).
    pub fn wire_size(&self) -> usize {
        self.descriptors.byte_size() + self.keypoints.len() * Keypoint::WIRE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hamming_distance_of_self_is_zero() {
        let mut d = BinaryDescriptor::zero();
        d.set_bit(0);
        d.set_bit(100);
        d.set_bit(255);
        assert_eq!(d.hamming_distance(&d), 0);
    }

    #[test]
    fn hamming_counts_set_bits() {
        let mut a = BinaryDescriptor::zero();
        let b = BinaryDescriptor::zero();
        for i in [0usize, 7, 63, 64, 128, 200, 255] {
            a.set_bit(i);
        }
        assert_eq!(a.hamming_distance(&b), 7);
        assert_eq!(b.hamming_distance(&a), 7);
    }

    #[test]
    fn bit_set_and_get_agree() {
        let mut d = BinaryDescriptor::zero();
        d.set_bit(130);
        assert!(d.bit(130));
        assert!(!d.bit(131));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let d = BinaryDescriptor::zero();
        let _ = d.bit(256);
    }

    #[test]
    fn words_cover_all_bytes() {
        let mut bytes = [0u8; 32];
        for (i, b) in bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        let d = BinaryDescriptor::from_bytes(bytes);
        assert_eq!(
            d.word(0),
            u64::from_le_bytes(bytes[0..8].try_into().unwrap())
        );
        assert_eq!(
            d.word(3),
            u64::from_le_bytes(bytes[24..32].try_into().unwrap())
        );
    }

    #[test]
    fn l2_distance_basics() {
        let a = VectorDescriptor::from_values(vec![0.0, 3.0]);
        let b = VectorDescriptor::from_values(vec![4.0, 0.0]);
        assert!((a.l2(&b) - 5.0).abs() < 1e-6);
        assert_eq!(a.l2_squared(&a), 0.0);
    }

    #[test]
    fn normalize_produces_unit_vector() {
        let mut v = VectorDescriptor::from_values(vec![3.0, 4.0]);
        v.normalize();
        let norm: f32 = v.values().iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-6);
        // Zero vector stays zero.
        let mut z = VectorDescriptor::from_values(vec![0.0, 0.0]);
        z.normalize();
        assert_eq!(z.values(), &[0.0, 0.0]);
    }

    #[test]
    fn byte_sizes() {
        let bin = Descriptors::Binary(DescriptorBlock::from_descriptors(
            &[BinaryDescriptor::zero(); 10],
        ));
        assert_eq!(bin.byte_size(), 320);
        let vec128 = Descriptors::Vector(vec![VectorDescriptor::from_values(vec![0.0; 128]); 2]);
        assert_eq!(vec128.byte_size(), 1024);
    }

    #[test]
    fn wire_size_includes_keypoints() {
        let mut f = ImageFeatures::empty_binary();
        assert_eq!(f.wire_size(), 0);
        f.keypoints.push(Keypoint::new(1.0, 2.0));
        if let Descriptors::Binary(v) = &mut f.descriptors {
            v.push(&BinaryDescriptor::zero());
        }
        assert_eq!(f.wire_size(), 32 + Keypoint::WIRE_SIZE);
    }
}
