#![warn(missing_docs)]

//! Local image features for the BEES reproduction.
//!
//! BEES (§III-D) detects similar images by extracting **local features** and
//! scoring the Jaccard similarity of the two feature sets (Eq. 2). The paper
//! selects **ORB** for the smartphone client because it is roughly two orders
//! of magnitude cheaper than SIFT at comparable detection accuracy, and uses
//! **SIFT** and **PCA-SIFT** as precision/space baselines (SmartEye uses
//! PCA-SIFT). All three are implemented here from scratch:
//!
//! * [`fast`] — FAST-9 corner detection with non-maximum suppression,
//! * [`harris`] — Harris corner response used to rank FAST corners (oFAST),
//! * [`pyramid`] — the scale pyramid shared by ORB,
//! * [`orientation`] — intensity-centroid patch orientation,
//! * [`brief`] — the steered 256-bit BRIEF descriptor (rBRIEF-style seeded
//!   sampling pattern),
//! * [`orb`] — the assembled ORB extractor,
//! * [`sift`] — a difference-of-Gaussians SIFT with 128-d gradient-histogram
//!   descriptors,
//! * [`pca`] — PCA-SIFT: gradient patches projected to 36 dimensions on a
//!   seeded orthonormal basis (no training pass, no eigensolver),
//! * [`matcher`] — brute-force Hamming / L2 matching with cross-checking,
//! * [`block`] — flat SoA descriptor storage ([`DescriptorBlock`]), the one
//!   format of every binary descriptor set, scanned by the batched popcount
//!   hot loops,
//! * [`similarity`] — the paper's Jaccard set similarity (Eq. 2).
//!
//! # Examples
//!
//! ```
//! use bees_features::orb::{Orb, OrbConfig};
//! use bees_features::extractor::FeatureExtractor;
//! use bees_image::GrayImage;
//!
//! let img = GrayImage::from_fn(128, 128, |x, y| {
//!     if (x / 16 + y / 16) % 2 == 0 { 230 } else { 25 }
//! });
//! let orb = Orb::new(OrbConfig::default());
//! let features = orb.extract(&img);
//! assert!(!features.is_empty());
//! ```

pub mod block;
pub mod brief;
pub mod descriptor;
pub mod extractor;
pub mod fast;
pub mod global;
pub mod harris;
pub mod keypoint;
pub mod matcher;
pub mod orb;
pub mod orientation;
pub mod pca;
pub mod pyramid;
pub mod sift;
pub mod similarity;

pub use block::DescriptorBlock;
pub use descriptor::{BinaryDescriptor, Descriptors, ImageFeatures, VectorDescriptor};
pub use extractor::{ExtractionStats, ExtractorKind, FeatureExtractor};
pub use keypoint::Keypoint;
