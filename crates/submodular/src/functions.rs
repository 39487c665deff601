//! Submodular objective functions: coverage, diversity, and weighted sums.

use crate::graph::SimilarityGraph;

/// A set function `F : 2^V → R` over ground set `{0, .., ground_size-1}`.
///
/// Implementations in this crate are monotone and submodular, which is what
/// gives the greedy algorithm its `(1 − 1/e)` guarantee; the property tests
/// check both properties on random instances.
pub trait SubmodularFunction {
    /// Number of elements in the ground set `V`.
    fn ground_size(&self) -> usize;

    /// Evaluates `F(S)` for a subset given as a sorted-or-not slice of
    /// distinct indices.
    fn eval(&self, set: &[usize]) -> f64;

    /// Marginal gain `F(S ∪ {v}) − F(S)`. Default implementation evaluates
    /// both sides; implementors may specialize.
    fn marginal_gain(&self, set: &[usize], v: usize) -> f64 {
        let mut extended = set.to_vec();
        extended.push(v);
        self.eval(&extended) - self.eval(set)
    }
}

/// The paper's coverage term: `f_cov(S) = Σ_{i ∈ V} max_{j ∈ S} w(i, j)`.
///
/// Monotone and submodular (a sum of maxima of non-negative weights).
#[derive(Debug, Clone)]
pub struct CoverageFunction<'a> {
    graph: &'a SimilarityGraph,
}

impl<'a> CoverageFunction<'a> {
    /// Creates the coverage function over a batch graph.
    pub fn new(graph: &'a SimilarityGraph) -> Self {
        CoverageFunction { graph }
    }
}

impl SubmodularFunction for CoverageFunction<'_> {
    fn ground_size(&self) -> usize {
        self.graph.len()
    }

    fn eval(&self, set: &[usize]) -> f64 {
        if set.is_empty() {
            return 0.0;
        }
        (0..self.graph.len())
            .map(|i| {
                set.iter()
                    .map(|&j| self.graph.weight(i, j))
                    .fold(0.0f64, f64::max)
            })
            .sum()
    }
}

/// The paper's diversity term: `f_div(S) = Σ_i N(S, I_i)` where `I_i` are
/// the threshold-partition subgraphs and `N` is 1 when `S` intersects
/// `I_i`, else 0 — i.e. the number of subgraphs represented in `S`.
///
/// Monotone and submodular (a coverage function over the partition).
#[derive(Debug, Clone)]
pub struct DiversityFunction {
    /// `membership[v]` is the index of the subgraph containing `v`.
    membership: Vec<usize>,
    n_parts: usize,
}

impl DiversityFunction {
    /// Creates the diversity function from a partition (as produced by
    /// [`partition_by_threshold`](crate::partition_by_threshold)).
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover `0..n` exactly once.
    pub fn new(partition: &[Vec<usize>]) -> Self {
        let n: usize = partition.iter().map(|p| p.len()).sum();
        let mut membership = vec![usize::MAX; n];
        for (pi, part) in partition.iter().enumerate() {
            for &v in part {
                assert!(v < n, "partition member {v} out of range");
                assert_eq!(
                    membership[v],
                    usize::MAX,
                    "node {v} appears in two subgraphs"
                );
                membership[v] = pi;
            }
        }
        assert!(
            membership.iter().all(|&m| m != usize::MAX),
            "partition must cover all nodes"
        );
        DiversityFunction {
            membership,
            n_parts: partition.len(),
        }
    }
}

impl SubmodularFunction for DiversityFunction {
    fn ground_size(&self) -> usize {
        self.membership.len()
    }

    fn eval(&self, set: &[usize]) -> f64 {
        let mut seen = vec![false; self.n_parts];
        let mut count = 0usize;
        for &v in set {
            let p = self.membership[v];
            if !seen[p] {
                seen[p] = true;
                count += 1;
            }
        }
        count as f64
    }
}

/// A non-negative weighted sum `F(S) = Σ λ_i · f_i(S)` — submodular
/// whenever every term is (paper §III-B2).
pub struct WeightedObjective<'a> {
    terms: Vec<(f64, &'a dyn SubmodularFunction)>,
}

impl<'a> WeightedObjective<'a> {
    /// Creates a weighted sum.
    ///
    /// # Panics
    ///
    /// Panics if `terms` is empty, any weight is negative/non-finite, or
    /// the terms disagree on the ground-set size.
    pub fn new(terms: Vec<(f64, &'a dyn SubmodularFunction)>) -> Self {
        assert!(!terms.is_empty(), "objective needs at least one term");
        let n = terms[0].1.ground_size();
        for (lambda, f) in &terms {
            assert!(
                lambda.is_finite() && *lambda >= 0.0,
                "weights must be non-negative"
            );
            assert_eq!(f.ground_size(), n, "terms must share a ground set");
        }
        WeightedObjective { terms }
    }
}

impl SubmodularFunction for WeightedObjective<'_> {
    fn ground_size(&self) -> usize {
        self.terms[0].1.ground_size()
    }

    fn eval(&self, set: &[usize]) -> f64 {
        self.terms.iter().map(|(l, f)| l * f.eval(set)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::partition_by_threshold;

    fn sample_graph() -> SimilarityGraph {
        let mut g = SimilarityGraph::new(5);
        g.set_weight(0, 1, 0.9);
        g.set_weight(0, 2, 0.1);
        g.set_weight(2, 3, 0.6);
        g.set_weight(3, 4, 0.05);
        g
    }

    #[test]
    fn coverage_of_empty_set_is_zero() {
        let g = sample_graph();
        assert_eq!(CoverageFunction::new(&g).eval(&[]), 0.0);
    }

    #[test]
    fn coverage_of_full_set_is_n() {
        let g = sample_graph();
        let f = CoverageFunction::new(&g);
        let all: Vec<usize> = (0..5).collect();
        assert!((f.eval(&all) - 5.0).abs() < 1e-9); // every node covers itself at 1.0
    }

    #[test]
    fn coverage_values_match_hand_computation() {
        let g = sample_graph();
        let f = CoverageFunction::new(&g);
        // S = {0}: cover(0)=1, cover(1)=0.9, cover(2)=0.1, cover(3)=0, cover(4)=0.
        assert!((f.eval(&[0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn coverage_is_monotone() {
        let g = sample_graph();
        let f = CoverageFunction::new(&g);
        assert!(f.eval(&[0, 2]) >= f.eval(&[0]));
        assert!(f.eval(&[0, 2, 4]) >= f.eval(&[0, 2]));
    }

    #[test]
    fn coverage_is_submodular_on_sample() {
        let g = sample_graph();
        let f = CoverageFunction::new(&g);
        // Diminishing returns: gain of adding 3 to {0} >= gain of adding 3
        // to {0, 2}.
        let g_small = f.marginal_gain(&[0], 3);
        let g_large = f.marginal_gain(&[0, 2], 3);
        assert!(g_small >= g_large - 1e-12);
    }

    #[test]
    fn diversity_counts_touched_subgraphs() {
        let g = sample_graph();
        let parts = partition_by_threshold(&g, 0.5); // {0,1}, {2,3}, {4}
        assert_eq!(parts.len(), 3);
        let f = DiversityFunction::new(&parts);
        assert_eq!(f.eval(&[]), 0.0);
        assert_eq!(f.eval(&[0]), 1.0);
        assert_eq!(f.eval(&[0, 1]), 1.0); // same subgraph
        assert_eq!(f.eval(&[0, 2]), 2.0);
        assert_eq!(f.eval(&[0, 2, 4]), 3.0);
    }

    #[test]
    #[should_panic(expected = "two subgraphs")]
    fn overlapping_partition_rejected() {
        let _ = DiversityFunction::new(&[vec![0, 1], vec![1]]);
    }

    #[test]
    fn weighted_sum_combines_terms() {
        let g = sample_graph();
        let parts = partition_by_threshold(&g, 0.5);
        let cov = CoverageFunction::new(&g);
        let div = DiversityFunction::new(&parts);
        let obj = WeightedObjective::new(vec![(1.0, &cov as &dyn SubmodularFunction), (2.0, &div)]);
        let s = [0usize, 2];
        assert!((obj.eval(&s) - (cov.eval(&s) + 2.0 * div.eval(&s))).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weight_rejected() {
        let g = sample_graph();
        let cov = CoverageFunction::new(&g);
        let _ = WeightedObjective::new(vec![(-1.0, &cov as &dyn SubmodularFunction)]);
    }
}
