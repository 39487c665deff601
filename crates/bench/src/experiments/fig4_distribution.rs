//! Fig. 4: similarity distribution of similar vs dissimilar image pairs —
//! true/false positive rate as a function of the similarity threshold.
//!
//! This is also where the EDR constants come from: the paper picks
//! `T0` at ~90 % TP / ~10 % FP and a slope `k` that keeps the threshold
//! discriminative at full battery. The binary prints the constants derived
//! from *our* measured distribution (DESIGN.md §5).

use crate::args::ExpArgs;
use crate::experiments::extract_groups;
use crate::table::{pct, Table};
use bees_core::BeesConfig;
use bees_datasets::{kentucky_like, SceneConfig};
use bees_features::orb::Orb;
use bees_features::similarity::jaccard_similarity;

/// One threshold sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePoint {
    /// Similarity threshold `T`.
    pub threshold: f64,
    /// Fraction of similar pairs with similarity above `T`.
    pub true_positive_rate: f64,
    /// Fraction of dissimilar pairs with similarity above `T`.
    pub false_positive_rate: f64,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Rate curve over thresholds.
    pub points: Vec<RatePoint>,
    /// Similar-pair similarity scores (sorted).
    pub similar_scores: Vec<f64>,
    /// Dissimilar-pair similarity scores (sorted).
    pub dissimilar_scores: Vec<f64>,
    /// Suggested EDR intercept `T0` (~90 % TP, ≤10 % FP).
    pub suggested_t0: f64,
    /// Suggested EDR slope `k`.
    pub suggested_k: f64,
}

impl Fig4Result {
    /// Prints the paper-style series and the derived EDR constants.
    pub fn print(&self) {
        println!("\n== Fig. 4: similarity distribution (similar vs dissimilar pairs) ==");
        println!(
            "({} similar pairs, {} dissimilar pairs)",
            self.similar_scores.len(),
            self.dissimilar_scores.len()
        );
        let mut t = Table::new(vec!["threshold T", "TP rate", "FP rate"]);
        for p in &self.points {
            t.row(vec![
                format!("{:.3}", p.threshold),
                pct(p.true_positive_rate),
                pct(p.false_positive_rate),
            ]);
        }
        t.print();
        println!(
            "derived EDR constants: T = {:.3} + {:.3} * Ebat  (paper form: T = T0 + k*Ebat)",
            self.suggested_t0, self.suggested_k
        );
    }
}

/// Runs the experiment.
pub fn run(args: &ExpArgs) -> Fig4Result {
    let config = BeesConfig::default();
    let n_groups = args.scaled(25, 4);
    let groups = kentucky_like(args.seed, n_groups, SceneConfig::default());
    let orb = Orb::new(config.orb);
    let features = extract_groups(&groups, &orb);

    let mut similar = Vec::new();
    let mut dissimilar = Vec::new();
    for (gi, g) in features.iter().enumerate() {
        for i in 0..g.len() {
            for j in (i + 1)..g.len() {
                similar.push(jaccard_similarity(&g[i], &g[j], &config.similarity));
            }
        }
        for g2 in features.iter().skip(gi + 1) {
            dissimilar.push(jaccard_similarity(&g[0], &g2[0], &config.similarity));
        }
    }
    similar.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
    dissimilar.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));

    let rate_above = |scores: &[f64], t: f64| -> f64 {
        scores.iter().filter(|&&s| s > t).count() as f64 / scores.len().max(1) as f64
    };
    let points: Vec<RatePoint> = (0..=30)
        .map(|i| {
            let t = i as f64 * 0.01;
            RatePoint {
                threshold: t,
                true_positive_rate: rate_above(&similar, t),
                false_positive_rate: rate_above(&dissimilar, t),
            }
        })
        .collect();

    // T0: the smallest threshold with TP >= 90% and FP <= 10% (fall back to
    // the FP-only condition if the distributions overlap).
    let suggested_t0 = points
        .iter()
        .find(|p| p.true_positive_rate >= 0.9 && p.false_positive_rate <= 0.1)
        .or_else(|| points.iter().find(|p| p.false_positive_rate <= 0.1))
        .map(|p| p.threshold)
        .unwrap_or(0.1);
    // k: keep the full-battery threshold below the similar-pair median so
    // true duplicates are still eliminated at Ebat = 1.
    let median_similar = similar.get(similar.len() / 2).copied().unwrap_or(0.3);
    let suggested_k = ((median_similar - suggested_t0) * 0.6).max(0.01);

    Fig4Result {
        points,
        similar_scores: similar,
        dissimilar_scores: dissimilar,
        suggested_t0,
        suggested_k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distributions_separate() {
        let args = ExpArgs {
            scale: 0.2,
            seed: 7,
            quick: true,
            ..ExpArgs::default()
        };
        let r = run(&args);
        // Rates are monotone non-increasing in the threshold.
        for w in r.points.windows(2) {
            assert!(w[1].true_positive_rate <= w[0].true_positive_rate + 1e-9);
            assert!(w[1].false_positive_rate <= w[0].false_positive_rate + 1e-9);
        }
        // The derived T0 must separate: high TP, low FP.
        let at_t0 = r
            .points
            .iter()
            .find(|p| p.threshold >= r.suggested_t0)
            .expect("t0 within sweep");
        assert!(at_t0.false_positive_rate <= 0.1);
        assert!(
            at_t0.true_positive_rate >= 0.8,
            "TP {}",
            at_t0.true_positive_rate
        );
        // And the default config should be near what we derive.
        assert!(
            (r.suggested_t0 - 0.10).abs() < 0.06,
            "t0 {}",
            r.suggested_t0
        );
    }
}
