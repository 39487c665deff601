//! Fig. 3: impact of the bitmap compression proportion on (a) similarity-
//! detection precision and (b) feature-extraction energy, both normalized
//! to the uncompressed case.
//!
//! Paper shape: precision stays above ~0.9 of the uncompressed value up to
//! C ≈ 0.4, then degrades; energy falls roughly monotonically with C
//! (approximately linearly in the paper's measurements).

use crate::args::ExpArgs;
use crate::experiments::{extract_queries, kentucky_index, top4_precision};
use crate::table::{f3, Table};
use bees_core::BeesConfig;
use bees_datasets::{kentucky_like, SceneConfig};
use bees_energy::model;
use bees_features::orb::Orb;
use bees_features::FeatureExtractor;
use bees_image::resize;

/// One sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionPoint {
    /// Bitmap compression proportion `C`.
    pub proportion: f64,
    /// Top-4 precision normalized to `C = 0`.
    pub normalized_precision: f64,
    /// Feature-extraction energy normalized to `C = 0`.
    pub normalized_energy: f64,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Sweep points ordered by proportion.
    pub points: Vec<CompressionPoint>,
    /// Absolute precision at `C = 0` (for context).
    pub base_precision: f64,
    /// Absolute extraction energy at `C = 0`, joules per query image.
    pub base_energy_j: f64,
}

impl Fig3Result {
    /// Prints the paper-style series.
    pub fn print(&self) {
        println!("\n== Fig. 3: bitmap compression vs precision & energy ==");
        println!(
            "(base precision {:.3}, base extraction energy {:.4} J/image)",
            self.base_precision, self.base_energy_j
        );
        let mut t = Table::new(vec!["C", "norm. precision", "norm. energy"]);
        for p in &self.points {
            t.row(vec![
                format!("{:.2}", p.proportion),
                f3(p.normalized_precision),
                f3(p.normalized_energy),
            ]);
        }
        t.print();
    }
}

/// Runs the sweep.
pub fn run(args: &ExpArgs) -> Fig3Result {
    let config = BeesConfig::default();
    let n_groups = args.scaled(40, 4);
    let groups = kentucky_like(args.seed, n_groups, SceneConfig::default());
    let orb = Orb::new(config.orb);
    let proportions: Vec<f64> = (0..10)
        .map(|i| i as f64 * 0.1)
        .filter(|&c| c < 0.95)
        .collect();

    let index = kentucky_index(&groups, &config.similarity, &orb);
    let mut precisions = Vec::new();
    let mut energies = Vec::new();
    for &c in &proportions {
        let extracted = extract_queries(&groups, |g| {
            let compressed = resize::compress_bitmap(g, c).expect("proportion is valid");
            orb.extract_with_stats(&compressed)
        });
        let mut energy = 0.0;
        for (_, stats) in &extracted {
            energy += model::extraction_energy(orb.kind(), stats);
        }
        let queries: Vec<_> = extracted.into_iter().map(|(f, _)| f).collect();
        precisions.push(top4_precision(&index, &queries));
        energies.push(energy / queries.len() as f64);
    }

    let base_p = precisions[0].max(1e-9);
    let base_e = energies[0].max(1e-12);
    let points = proportions
        .iter()
        .zip(precisions.iter().zip(&energies))
        .map(|(&c, (&p, &e))| CompressionPoint {
            proportion: c,
            normalized_precision: p / base_p,
            normalized_energy: e / base_e,
        })
        .collect();
    Fig3Result {
        points,
        base_precision: precisions[0],
        base_energy_j: energies[0],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let args = ExpArgs {
            scale: 0.15,
            seed: 11,
            quick: true,
            ..ExpArgs::default()
        };
        let r = run(&args);
        assert_eq!(r.points.len(), 10);
        // C = 0 is the normalization anchor.
        assert!((r.points[0].normalized_precision - 1.0).abs() < 1e-9);
        assert!((r.points[0].normalized_energy - 1.0).abs() < 1e-9);
        // Energy falls with compression; by C = 0.5 it should be well below 1.
        assert!(r.points[5].normalized_energy < 0.8);
        // Moderate compression preserves most precision (paper: > 0.9 at 0.4).
        assert!(
            r.points[3].normalized_precision > 0.7,
            "precision at C=0.3: {}",
            r.points[3].normalized_precision
        );
    }
}
