//! Fig. 6: similarity-detection precision of SIFT, PCA-SIFT, and
//! BEES(Ebat) — BEES' ORB running on bitmaps compressed by the EAC
//! proportion for the given battery level — normalized to SIFT.
//!
//! Paper shape: SIFT highest; PCA-SIFT close behind; BEES(100) above 90 %
//! of SIFT; BEES degrades only gently as Ebat falls (BEES(10) still above
//! ~85 %).

use crate::args::ExpArgs;
use crate::experiments::{extract_queries, kentucky_index, top4_precision};
use crate::table::{f3, Table};
use bees_core::schemes::{EAC, PCA_BASIS_SEED};
use bees_core::BeesConfig;
use bees_datasets::{kentucky_like, SceneConfig};
use bees_features::orb::Orb;
use bees_features::pca::PcaSift;
use bees_features::sift::Sift;
use bees_features::FeatureExtractor;
use bees_image::resize;

/// Precision of one scheme at one query-count setting.
#[derive(Debug, Clone, PartialEq)]
pub struct PrecisionRow {
    /// Scheme label ("SIFT", "PCA-SIFT", "BEES(100)", ...).
    pub label: String,
    /// Absolute top-4 precision.
    pub precision: f64,
    /// Precision normalized to SIFT's.
    pub normalized: f64,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Number of groups (= number of queries).
    pub n_queries: usize,
    /// Rows in paper order.
    pub rows: Vec<PrecisionRow>,
}

impl Fig6Result {
    /// Prints the paper-style table.
    pub fn print(&self) {
        println!(
            "\n== Fig. 6: normalized precision ({} queries) ==",
            self.n_queries
        );
        let mut t = Table::new(vec!["scheme", "precision", "normalized to SIFT"]);
        for r in &self.rows {
            t.row(vec![r.label.clone(), f3(r.precision), f3(r.normalized)]);
        }
        t.print();
    }
}

/// Runs the comparison.
pub fn run(args: &ExpArgs) -> Fig6Result {
    let config = BeesConfig::default();
    let n_groups = args.scaled(12, 3);
    let groups = kentucky_like(args.seed, n_groups, SceneConfig::default());

    let mut rows = Vec::new();

    let sift = Sift;
    let p_sift = top4_precision(
        &kentucky_index(&groups, &config.similarity, &sift),
        &extract_queries(&groups, |g| sift.extract(g)),
    );
    rows.push(PrecisionRow {
        label: "SIFT".into(),
        precision: p_sift,
        normalized: 1.0,
    });

    let pca = PcaSift::with_seeded_basis(PCA_BASIS_SEED);
    let p_pca = top4_precision(
        &kentucky_index(&groups, &config.similarity, &pca),
        &extract_queries(&groups, |g| pca.extract(g)),
    );
    rows.push(PrecisionRow {
        label: "PCA-SIFT".into(),
        precision: p_pca,
        normalized: p_pca / p_sift.max(1e-9),
    });

    let orb = Orb::new(config.orb);
    let orb_index = kentucky_index(&groups, &config.similarity, &orb);
    for ebat_pct in [100u32, 70, 40, 10] {
        let c = EAC.value(ebat_pct as f64 / 100.0);
        let queries = extract_queries(&groups, |g| {
            let compressed = resize::compress_bitmap(g, c).expect("valid proportion");
            orb.extract(&compressed)
        });
        let p = top4_precision(&orb_index, &queries);
        rows.push(PrecisionRow {
            label: format!("BEES({ebat_pct})"),
            precision: p,
            normalized: p / p_sift.max(1e-9),
        });
    }

    Fig6Result {
        n_queries: n_groups,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bees_precision_tracks_paper_shape() {
        let args = ExpArgs {
            scale: 0.4,
            seed: 21,
            quick: false,
            ..ExpArgs::default()
        };
        let r = run(&args);
        assert_eq!(r.rows.len(), 6);
        let by_label = |l: &str| {
            r.rows
                .iter()
                .find(|row| row.label == l)
                .unwrap_or_else(|| panic!("{l} missing"))
        };
        let sift = by_label("SIFT");
        assert!(sift.precision > 0.5, "SIFT precision {}", sift.precision);
        // BEES(100) runs on uncompressed bitmaps: strong precision.
        let b100 = by_label("BEES(100)");
        assert!(
            b100.normalized > 0.7,
            "BEES(100) normalized {}",
            b100.normalized
        );
        // BEES(10) compresses by ~0.36 and loses only modest precision.
        let b10 = by_label("BEES(10)");
        assert!(
            b10.normalized > 0.5,
            "BEES(10) normalized {}",
            b10.normalized
        );
        assert!(b10.precision <= b100.precision + 0.1);
    }
}
