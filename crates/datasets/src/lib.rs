#![warn(missing_docs)]

//! Synthetic stand-ins for the BEES paper's three image datasets.
//!
//! The paper evaluates on the Kentucky benchmark (10,200 photos in groups
//! of 4 similar views), 1,000 Nepal-earthquake photos, and 501,356
//! geotagged Paris photos. None of those can ship with this reproduction,
//! so this crate generates deterministic synthetic equivalents that
//! exercise the identical code paths:
//!
//! * [`scene`] — a seeded scene renderer producing structured images
//!   (gradients, shapes, texture) with enough corners for ORB/SIFT, plus
//!   [`ViewJitter`] to render *similar views* of the
//!   same scene (small translation/brightness/noise perturbations — the
//!   synthetic analogue of "4 images taken from the same object"),
//! * [`kentucky`] — groups of 4 similar views; drives the precision
//!   experiments (Figs. 3, 4, 6),
//! * [`disaster`] — upload batches with controlled cross-batch redundancy
//!   ratio and in-batch similar images; drives Figs. 7, 8, 10, 11,
//! * [`paris`] — a geotagged corpus with Zipf-distributed images per
//!   location inside a bounding box; drives the lifetime and coverage
//!   experiments (Figs. 9, 12).
//!
//! Everything is seeded and deterministic: the same seed always produces
//! byte-identical images.

pub mod disaster;
pub mod kentucky;
pub mod paris;
pub mod scene;

pub use disaster::{disaster_batch, DisasterBatch};
pub use kentucky::{kentucky_like, KentuckyGroup};
pub use paris::{GeoImage, ParisConfig, ParisLike};
pub use scene::{Scene, SceneConfig, ViewJitter};
