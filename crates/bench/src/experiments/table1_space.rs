//! Table I: space overhead of SIFT, PCA-SIFT, and ORB (BEES) features
//! relative to the images themselves, on the Kentucky-like and Paris-like
//! imagesets.
//!
//! Paper shape: SIFT features rival (or exceed) the image bytes; PCA-SIFT
//! is 25 % of SIFT; ORB is one order below PCA-SIFT and about two below
//! SIFT.

use crate::args::ExpArgs;
use crate::table::{kib, pct, Table};
use bees_core::schemes::{CAMERA_QUALITY, PCA_BASIS_SEED};
use bees_core::BeesConfig;
use bees_datasets::{kentucky_like, ParisConfig, ParisLike, SceneConfig};
use bees_features::orb::Orb;
use bees_features::pca::PcaSift;
use bees_features::sift::Sift;
use bees_features::FeatureExtractor;
use bees_image::RgbImage;

/// Space numbers for one imageset.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceRow {
    /// Imageset name.
    pub imageset: String,
    /// Number of images measured.
    pub n_images: usize,
    /// Stored image-file bytes (camera-quality encoding, the paper's
    /// "image size" column is JPEG files, not raw bitmaps).
    pub image_bytes: usize,
    /// SIFT feature bytes.
    pub sift_bytes: usize,
    /// PCA-SIFT feature bytes.
    pub pca_bytes: usize,
    /// ORB (BEES) feature bytes.
    pub orb_bytes: usize,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// One row per imageset.
    pub rows: Vec<SpaceRow>,
}

impl Table1Result {
    /// Prints the paper-style table (percentages are relative to SIFT).
    pub fn print(&self) {
        println!("\n== Table I: feature space overheads ==");
        let mut t = Table::new(vec![
            "imageset",
            "images (KiB)",
            "SIFT (KiB)",
            "PCA-SIFT (KiB)",
            "BEES/ORB (KiB)",
        ]);
        for r in &self.rows {
            let s = r.sift_bytes.max(1) as f64;
            t.row(vec![
                format!("{} ({} imgs)", r.imageset, r.n_images),
                kib(r.image_bytes),
                format!("{} (100%)", kib(r.sift_bytes)),
                format!("{} ({})", kib(r.pca_bytes), pct(r.pca_bytes as f64 / s)),
                format!("{} ({})", kib(r.orb_bytes), pct(r.orb_bytes as f64 / s)),
            ]);
        }
        t.print();
    }
}

fn measure(name: &str, images: &[RgbImage], config: &BeesConfig) -> SpaceRow {
    let sift = Sift;
    let pca = PcaSift::with_seeded_basis(PCA_BASIS_SEED);
    let orb = Orb::new(config.orb);
    let mut row = SpaceRow {
        imageset: name.to_string(),
        n_images: images.len(),
        image_bytes: 0,
        sift_bytes: 0,
        pca_bytes: 0,
        orb_bytes: 0,
    };
    let sizes = bees_runtime::par_map(images, |img| {
        let gray = img.to_gray();
        [
            bees_image::codec::encoded_rgb_size(img, CAMERA_QUALITY).expect("valid camera quality"),
            sift.extract(&gray).wire_size(),
            pca.extract(&gray).wire_size(),
            orb.extract(&gray).wire_size(),
        ]
    });
    for [image_bytes, sift_bytes, pca_bytes, orb_bytes] in sizes {
        row.image_bytes += image_bytes;
        row.sift_bytes += sift_bytes;
        row.pca_bytes += pca_bytes;
        row.orb_bytes += orb_bytes;
    }
    row
}

/// Runs the measurement on both imagesets.
pub fn run(args: &ExpArgs) -> Table1Result {
    let config = BeesConfig::default();

    let kentucky_groups = args.scaled(10, 2);
    let kentucky: Vec<RgbImage> = kentucky_like(args.seed, kentucky_groups, SceneConfig::default())
        .into_iter()
        .flat_map(|g| g.images)
        .collect();

    let paris_images = args.scaled(60, 8);
    let paris_cfg = ParisConfig {
        n_locations: (paris_images / 3).max(2),
        n_images: paris_images,
        ..ParisConfig::default()
    };
    let corpus = ParisLike::generate(args.seed ^ 0x9A15, paris_cfg);
    let paris: Vec<RgbImage> = (0..corpus.len()).map(|i| corpus.image(i).image).collect();

    Table1Result {
        rows: vec![
            measure("Kentucky-like", &kentucky, &config),
            measure("Paris-like", &paris, &config),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orb_is_smallest_sift_is_largest() {
        let args = ExpArgs {
            scale: 0.2,
            seed: 5,
            quick: true,
            ..ExpArgs::default()
        };
        let r = run(&args);
        for row in &r.rows {
            assert!(row.sift_bytes > row.pca_bytes, "{row:?}");
            assert!(row.pca_bytes > row.orb_bytes, "{row:?}");
            // ORB must be far below SIFT (paper: ~2 orders; detector
            // differences make the exact factor workload-dependent).
            assert!(
                (row.orb_bytes as f64) < 0.35 * row.sift_bytes as f64,
                "ORB {} vs SIFT {}",
                row.orb_bytes,
                row.sift_bytes
            );
        }
    }
}
