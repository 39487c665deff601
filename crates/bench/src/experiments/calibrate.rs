//! Threshold calibration: measures the similar/dissimilar Jaccard score
//! distributions for both feature families on the current synthetic scenes
//! and prints the constants the schemes should carry (`schemes::EDR` for
//! BEES, `schemes::PCA_THRESHOLD` for SmartEye).
//!
//! This is the reproducible version of the hand-calibration recorded in
//! `DESIGN.md` §5 — rerun it after changing scene parameters, the ORB
//! budget, or the matcher thresholds.

use crate::args::ExpArgs;
use crate::experiments::extract_groups;
use crate::table::{f3, Table};
use bees_core::schemes::{EDR, PCA_BASIS_SEED};
use bees_core::BeesConfig;
use bees_datasets::{kentucky_like, SceneConfig};
use bees_features::orb::Orb;
use bees_features::pca::PcaSift;
use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::ImageFeatures;

/// Distribution summary for one feature family.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Feature family label.
    pub label: String,
    /// Minimum similar-pair score.
    pub similar_min: f64,
    /// 10th-percentile similar-pair score.
    pub similar_p10: f64,
    /// Median similar-pair score.
    pub similar_p50: f64,
    /// Median dissimilar-pair score.
    pub dissimilar_p50: f64,
    /// 90th-percentile dissimilar-pair score.
    pub dissimilar_p90: f64,
    /// Maximum dissimilar-pair score.
    pub dissimilar_max: f64,
}

impl Distribution {
    /// Whether a separation-clean fixed threshold exists, and its value
    /// (midpoint of the gap) when it does.
    pub fn clean_threshold(&self) -> Option<f64> {
        (self.similar_min > self.dissimilar_max)
            .then(|| (self.similar_min + self.dissimilar_max) / 2.0)
    }
}

/// Full calibration result.
#[derive(Debug, Clone)]
pub struct CalibrationResult {
    /// ORB and PCA-SIFT distributions.
    pub distributions: Vec<Distribution>,
    /// Suggested EDR `(t0, k)` for ORB.
    pub edr: (f64, f64),
}

impl CalibrationResult {
    /// Prints the measured distributions and suggested constants.
    pub fn print(&self) {
        println!("\n== Calibration: similarity score distributions ==");
        let mut t = Table::new(vec![
            "family", "sim min", "sim p10", "sim p50", "dis p50", "dis p90", "dis max", "clean T",
        ]);
        for d in &self.distributions {
            t.row(vec![
                d.label.clone(),
                f3(d.similar_min),
                f3(d.similar_p10),
                f3(d.similar_p50),
                f3(d.dissimilar_p50),
                f3(d.dissimilar_p90),
                f3(d.dissimilar_max),
                d.clean_threshold()
                    .map(f3)
                    .unwrap_or_else(|| "overlap!".into()),
            ]);
        }
        t.print();
        println!(
            "suggested EDR (ORB): T = {:.3} + {:.3} * Ebat   (config default: T = {:.3} + {:.3} * Ebat)",
            self.edr.0,
            self.edr.1,
            EDR.intercept,
            EDR.slope,
        );
    }
}

fn measure(label: &str, feats: &[Vec<ImageFeatures>], cfg: &SimilarityConfig) -> Distribution {
    let mut similar = Vec::new();
    let mut dissimilar = Vec::new();
    for (gi, g) in feats.iter().enumerate() {
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                similar.push(jaccard_similarity(&g[i], &g[j], cfg));
            }
        }
        for g2 in feats.iter().skip(gi + 1) {
            dissimilar.push(jaccard_similarity(&g[0], &g2[0], cfg));
        }
    }
    similar.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    dissimilar.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    let pct = |v: &[f64], p: f64| v[((v.len() - 1) as f64 * p) as usize];
    Distribution {
        label: label.to_string(),
        similar_min: similar[0],
        similar_p10: pct(&similar, 0.1),
        similar_p50: pct(&similar, 0.5),
        dissimilar_p50: pct(&dissimilar, 0.5),
        dissimilar_p90: pct(&dissimilar, 0.9),
        dissimilar_max: *dissimilar.last().expect("non-empty"),
    }
}

/// Runs the calibration measurement.
pub fn run(args: &ExpArgs) -> CalibrationResult {
    let config = BeesConfig::default();
    let n_groups = args.scaled(10, 3);
    let groups = kentucky_like(args.seed, n_groups, SceneConfig::default());

    let orb = Orb::new(config.orb);
    let pca = PcaSift::with_seeded_basis(PCA_BASIS_SEED);
    let orb_feats = extract_groups(&groups, &orb);
    let pca_feats = extract_groups(&groups, &pca);

    let d_orb = measure("ORB", &orb_feats, &config.similarity);
    let d_pca = measure("PCA-SIFT", &pca_feats, &config.similarity);

    // EDR: floor just above the dissimilar max (rounded up to 2 decimals),
    // slope filling 60% of the gap to the similar minimum.
    let t0 = (d_orb.dissimilar_max * 100.0).ceil() / 100.0 + 0.01;
    let k = ((d_orb.similar_min - t0) * 0.6).max(0.01);
    CalibrationResult {
        distributions: vec![d_orb, d_pca],
        edr: (t0, k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bees_core::schemes::PCA_THRESHOLD;

    #[test]
    fn measured_distributions_validate_config_defaults() {
        let args = ExpArgs {
            scale: 0.5,
            seed: 0xCA11,
            quick: false,
            ..ExpArgs::default()
        };
        let r = run(&args);
        let orb = &r.distributions[0];
        // The EDR band must sit inside the measured gap.
        let t_low = EDR.value(0.0);
        let t_high = EDR.value(1.0);
        assert!(
            t_low > orb.dissimilar_p90,
            "EDR floor {t_low} below dissimilar p90 {}",
            orb.dissimilar_p90
        );
        assert!(
            t_high < orb.similar_p10,
            "EDR ceiling {t_high} above similar p10 {}",
            orb.similar_p10
        );
        // PCA threshold sits in PCA's gap.
        let pca = &r.distributions[1];
        assert!(PCA_THRESHOLD > pca.dissimilar_p90);
        assert!(PCA_THRESHOLD < pca.similar_p10);
    }
}
