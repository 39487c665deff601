//! Ablation: SSMM's similarity-adaptive budget vs. a user-fixed budget
//! (paper §III-B2 argues the fixed budget "is inefficient in our
//! application situation" because the right summary size varies from batch
//! to batch).
//!
//! Batches with different amounts of in-batch duplication are summarized
//! with (a) the adaptive budget and (b) fixed budgets; the table reports
//! how many images each keeps and the redundancy/coverage errors: a fixed
//! budget either keeps duplicates (too large) or drops unique scenes (too
//! small), while the adaptive budget tracks the batch structure.

use crate::args::ExpArgs;
use crate::table::Table;
use bees_core::schemes::EDR;
use bees_core::BeesConfig;
use bees_datasets::{Scene, SceneConfig, ViewJitter};
use bees_features::orb::Orb;
use bees_features::similarity::jaccard_similarity;
use bees_features::FeatureExtractor;
use bees_rng::ChaCha8Rng;
use bees_submodular::{SimilarityGraph, Ssmm};

/// One batch structure evaluated under several budget policies.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Number of distinct scenes in the batch.
    pub unique_scenes: usize,
    /// Total images (including duplicate views).
    pub batch_size: usize,
    /// Adaptive budget chosen by SSMM.
    pub adaptive_budget: usize,
    /// Images kept / duplicates kept / unique scenes missed, per policy:
    /// `[adaptive, fixed_half, fixed_double]`.
    pub outcomes: Vec<(String, usize, usize, usize)>,
}

/// Full ablation result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// One row per batch structure.
    pub rows: Vec<AblationRow>,
}

impl AblationResult {
    /// Prints the comparison.
    pub fn print(&self) {
        println!("\n== Ablation: SSMM adaptive budget vs fixed budgets ==");
        let mut t = Table::new(vec![
            "batch (unique/total)",
            "policy",
            "kept",
            "dupes kept",
            "scenes missed",
        ]);
        for row in &self.rows {
            for (policy, kept, dupes, missed) in &row.outcomes {
                t.row(vec![
                    format!("{}/{}", row.unique_scenes, row.batch_size),
                    policy.clone(),
                    kept.to_string(),
                    dupes.to_string(),
                    missed.to_string(),
                ]);
            }
        }
        t.print();
        println!("the adaptive budget keeps ~one image per scene; fixed budgets either");
        println!("retain duplicates or drop unique scenes as the batch structure shifts.");
    }
}

/// Runs the ablation over batches with 2, 4, and 8 duplicate views per
/// scene structure.
pub fn run(args: &ExpArgs) -> AblationResult {
    let config = BeesConfig::default();
    let orb = Orb::new(config.orb);
    let ssmm = Ssmm;
    let tw = EDR.value(1.0);
    let scene_cfg = SceneConfig::default();
    let mut rows = Vec::new();

    // (unique scenes, views per scene)
    for &(unique, views) in &[(8usize, 1usize), (4, 2), (2, 4)] {
        let mut rng = ChaCha8Rng::seed_from_u64(args.seed ^ (unique as u64) << 8);
        let mut features = Vec::new();
        let mut scene_of = Vec::new();
        for s in 0..unique {
            let scene = Scene::new(args.seed.wrapping_add(s as u64 * 7919), scene_cfg);
            for v in 0..views {
                let img = if v == 0 {
                    scene.render(&ViewJitter::identity())
                } else {
                    scene.render(&ViewJitter::sample(&mut rng))
                };
                features.push(orb.extract(&img.to_gray()));
                scene_of.push(s);
            }
        }
        let n = features.len();
        let graph = SimilarityGraph::from_pairwise(n, |i, j| {
            jaccard_similarity(&features[i], &features[j], &config.similarity)
        });

        let adaptive = ssmm.summarize(&graph, tw);
        let b = adaptive.budget;
        let mut outcomes = Vec::new();
        for (policy, summary) in [
            ("adaptive".to_string(), adaptive.clone()),
            (
                format!("fixed {}", (b / 2).max(1)),
                ssmm.summarize_with_fixed_budget(&graph, tw, (b / 2).max(1)),
            ),
            (
                format!("fixed {}", (b * 2).min(n)),
                ssmm.summarize_with_fixed_budget(&graph, tw, (b * 2).min(n)),
            ),
        ] {
            let kept = summary.selected.len();
            // Duplicates kept: images beyond the first per scene.
            let mut seen = vec![false; unique];
            let mut dupes = 0usize;
            for &i in &summary.selected {
                if seen[scene_of[i]] {
                    dupes += 1;
                } else {
                    seen[scene_of[i]] = true;
                }
            }
            let missed = seen.iter().filter(|&&s| !s).count();
            outcomes.push((policy, kept, dupes, missed));
        }
        rows.push(AblationRow {
            unique_scenes: unique,
            batch_size: n,
            adaptive_budget: b,
            outcomes,
        });
    }
    AblationResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_budget_tracks_batch_structure() {
        let args = ExpArgs {
            scale: 1.0,
            seed: 91,
            quick: false,
            ..ExpArgs::default()
        };
        let r = run(&args);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            // The adaptive policy is the first outcome.
            let (policy, kept, dupes, missed) = &row.outcomes[0];
            assert_eq!(policy, "adaptive");
            // It keeps roughly one image per unique scene: no scene missed
            // and (almost) no duplicates kept.
            assert_eq!(*missed, 0, "adaptive missed scenes in {row:?}");
            assert!(*dupes <= 1, "adaptive kept {dupes} duplicates in {row:?}");
            assert!(*kept >= row.unique_scenes);
            // The halved fixed budget must miss scenes whenever it is
            // genuinely below the scene count.
            let (_, _, _, missed_half) = &row.outcomes[1];
            if row.adaptive_budget / 2 >= 1 && row.adaptive_budget / 2 < row.unique_scenes {
                assert!(*missed_half > 0, "fixed-half should under-cover in {row:?}");
            }
        }
    }
}
