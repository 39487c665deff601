//! The assembled SSMM: Algorithm 1 of the paper.

use crate::functions::{
    CoverageFunction, DiversityFunction, SubmodularFunction, WeightedObjective,
};
use crate::graph::{partition_by_threshold, SimilarityGraph};
use crate::greedy::lazy_greedy_maximize;

/// Weight of the coverage term.
const LAMBDA_COVERAGE: f64 = 1.0;
/// Weight of the diversity term: scaled up so that representing a new
/// subgraph beats marginally improving coverage inside an already-covered
/// one.
const LAMBDA_DIVERSITY: f64 = 2.0;

/// Output of one SSMM run.
#[derive(Debug, Clone, PartialEq)]
pub struct SsmmSummary {
    /// Selected image indices (the unique subset to upload), in greedy
    /// pick order.
    pub selected: Vec<usize>,
    /// The adaptive budget `b` = number of partitioned subgraphs.
    pub budget: usize,
    /// The threshold-cut partition of the batch.
    pub partitions: Vec<Vec<usize>>,
    /// Objective value `F(selected)`.
    pub objective: f64,
}

/// The Similarity-aware Submodular Maximization Model.
///
/// # Examples
///
/// ```
/// use bees_submodular::{SimilarityGraph, Ssmm};
///
/// let mut g = SimilarityGraph::new(3);
/// g.set_weight(0, 1, 0.9); // near-duplicates
/// let summary = Ssmm.summarize(&g, 0.5);
/// // Budget 2: one of {0, 1} plus {2}.
/// assert_eq!(summary.budget, 2);
/// assert!(summary.selected.contains(&2));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Ssmm;

impl Ssmm {
    /// Runs Algorithm 1: partition `graph` at `tw`, take the number of
    /// subgraphs as the budget, and greedily maximize
    /// `λ_cov · f_cov + λ_div · f_div`.
    ///
    /// `tw` is the energy-adaptive threshold (`Tw = T0 + k·Ebat`); pass the
    /// value of `bees_energy::LinearScheme::edr` evaluated at the current
    /// battery fraction.
    pub fn summarize(&self, graph: &SimilarityGraph, tw: f64) -> SsmmSummary {
        let partitions = partition_by_threshold(graph, tw);
        let budget = partitions.len();
        self.summarize_partitioned(graph, partitions, budget)
    }

    /// The ablation the paper argues against (§III-B2): a user-fixed budget
    /// `b` instead of the similarity-adaptive one. The partition (and thus
    /// the diversity term) still comes from `tw`, but the selection stops
    /// at `min(b, |V|)` images regardless of how many subgraphs exist.
    ///
    /// With `b` below the subgraph count the summary under-covers; above
    /// it, redundant images slip through — which is exactly why SSMM
    /// derives the budget from the partition.
    pub fn summarize_with_fixed_budget(
        &self,
        graph: &SimilarityGraph,
        tw: f64,
        budget: usize,
    ) -> SsmmSummary {
        let partitions = partition_by_threshold(graph, tw);
        let budget = budget.min(graph.len());
        self.summarize_partitioned(graph, partitions, budget)
    }

    fn summarize_partitioned(
        &self,
        graph: &SimilarityGraph,
        partitions: Vec<Vec<usize>>,
        budget: usize,
    ) -> SsmmSummary {
        let coverage = CoverageFunction::new(graph);
        let diversity = DiversityFunction::new(&partitions);
        let objective = WeightedObjective::new(vec![
            (LAMBDA_COVERAGE, &coverage as &dyn SubmodularFunction),
            (LAMBDA_DIVERSITY, &diversity),
        ]);
        let selected = lazy_greedy_maximize(&objective, budget);
        let value = objective.eval(&selected);
        SsmmSummary {
            selected,
            budget,
            partitions,
            objective: value,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_collapsed() {
        // Batch of 6: {0,1,2} mutually similar, {3,4} similar, {5} unique.
        let mut g = SimilarityGraph::new(6);
        for &(i, j) in &[(0, 1), (0, 2), (1, 2)] {
            g.set_weight(i, j, 0.8);
        }
        g.set_weight(3, 4, 0.7);
        let s = Ssmm.summarize(&g, 0.3);
        assert_eq!(s.budget, 3);
        assert_eq!(s.selected.len(), 3);
        // Exactly one from each cluster.
        let from_a = s.selected.iter().filter(|&&v| v <= 2).count();
        let from_b = s.selected.iter().filter(|&&v| v == 3 || v == 4).count();
        let from_c = s.selected.iter().filter(|&&v| v == 5).count();
        assert_eq!((from_a, from_b, from_c), (1, 1, 1));
    }

    #[test]
    fn all_unique_batch_is_kept_whole() {
        let g = SimilarityGraph::new(5); // no edges at all
        let s = Ssmm.summarize(&g, 0.1);
        assert_eq!(s.budget, 5);
        let mut sel = s.selected.clone();
        sel.sort_unstable();
        assert_eq!(sel, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn all_identical_batch_keeps_one() {
        let g = SimilarityGraph::from_pairwise(8, |_, _| 0.95);
        let s = Ssmm.summarize(&g, 0.5);
        assert_eq!(s.budget, 1);
        assert_eq!(s.selected.len(), 1);
    }

    #[test]
    fn higher_tw_keeps_more_images() {
        let g =
            SimilarityGraph::from_pairwise(10, |i, j| if (i / 2) == (j / 2) { 0.4 } else { 0.0 });
        let low = Ssmm.summarize(&g, 0.2);
        let high = Ssmm.summarize(&g, 0.6);
        assert!(high.budget >= low.budget);
        assert!(high.selected.len() >= low.selected.len());
        assert_eq!(low.budget, 5);
        assert_eq!(high.budget, 10);
    }

    #[test]
    fn single_image_batch() {
        let g = SimilarityGraph::new(1);
        let s = Ssmm.summarize(&g, 0.5);
        assert_eq!(s.selected, vec![0]);
        assert_eq!(s.budget, 1);
    }

    #[test]
    fn objective_value_is_reported() {
        let g = SimilarityGraph::from_pairwise(4, |_, _| 0.5);
        let s = Ssmm.summarize(&g, 0.9);
        assert!(s.objective > 0.0);
    }

    #[test]
    fn fixed_budget_under_covers_clustered_batches() {
        // Three clear clusters; the adaptive budget finds all three while a
        // fixed budget of 2 must leave one subgraph unrepresented, and a
        // fixed budget of 5 keeps redundant images.
        let mut g = SimilarityGraph::new(6);
        for &(i, j) in &[(0, 1), (2, 3), (4, 5)] {
            g.set_weight(i, j, 0.8);
        }
        let ssmm = Ssmm;
        let adaptive = ssmm.summarize(&g, 0.3);
        assert_eq!(adaptive.selected.len(), 3);

        let starved = ssmm.summarize_with_fixed_budget(&g, 0.3, 2);
        assert_eq!(starved.selected.len(), 2);
        assert!(starved.objective < adaptive.objective);

        let bloated = ssmm.summarize_with_fixed_budget(&g, 0.3, 5);
        assert_eq!(bloated.selected.len(), 5);
        // The two extra images are redundant: they add only their residual
        // coverage, no new subgraphs.
        let redundant: usize = 5 - 3;
        assert_eq!(
            bloated
                .partitions
                .iter()
                .filter(|p| p.iter().filter(|v| bloated.selected.contains(v)).count() > 1)
                .count(),
            redundant
        );
    }

    #[test]
    fn fixed_budget_clamps_to_ground_set() {
        let g = SimilarityGraph::new(3);
        let s = Ssmm.summarize_with_fixed_budget(&g, 0.5, 99);
        assert_eq!(s.selected.len(), 3);
    }
}
