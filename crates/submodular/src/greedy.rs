//! Greedy maximization under a cardinality budget.
//!
//! Algorithm 1 in the paper: repeatedly add the element with the largest
//! marginal gain until the budget is reached. For monotone submodular `F`
//! this is a `(1 − 1/e)`-approximation (Nemhauser et al.), which the tests
//! verify against brute force.

use crate::functions::SubmodularFunction;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Naive greedy: scans all remaining elements each round. `O(b·n)` calls
/// to `marginal_gain`.
///
/// Ties break toward the smaller index, so the result is deterministic.
///
/// # Panics
///
/// Panics if `budget > f.ground_size()`.
pub fn greedy_maximize(f: &dyn SubmodularFunction, budget: usize) -> Vec<usize> {
    let n = f.ground_size();
    assert!(budget <= n, "budget {budget} exceeds ground set {n}");
    let mut selected: Vec<usize> = Vec::with_capacity(budget);
    let mut remaining: Vec<bool> = vec![true; n];
    for _ in 0..budget {
        // Only a strictly greater gain replaces the best, so exact ties keep
        // the lowest index.
        let mut best: Option<(usize, f64)> = None;
        for v in (0..n).filter(|&v| remaining[v]) {
            let gain = f.marginal_gain(&selected, v);
            if best.is_none_or(|(_, bg)| gain > bg) {
                best = Some((v, gain));
            }
        }
        match best {
            Some((v, _)) => {
                remaining[v] = false;
                selected.push(v);
            }
            None => break,
        }
    }
    selected
}

/// A candidate in the lazy-greedy priority queue.
#[derive(Debug)]
struct LazyEntry {
    gain: f64,
    element: usize,
    /// Round at which `gain` was computed; stale entries are re-evaluated.
    round: usize,
}

impl PartialEq for LazyEntry {
    fn eq(&self, other: &Self) -> bool {
        self.gain == other.gain && self.element == other.element
    }
}
impl Eq for LazyEntry {}
impl PartialOrd for LazyEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for LazyEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on gain; tie-break toward the smaller element index so
        // lazy and naive greedy agree exactly.
        self.gain
            .partial_cmp(&other.gain)
            .expect("gains are finite")
            .then(other.element.cmp(&self.element))
    }
}

/// Lazy greedy (Minoux's accelerated greedy): marginal gains can only
/// shrink as the selection grows, so a stale heap entry whose gain still
/// tops the heap after re-evaluation is the true maximizer.
///
/// Produces a selection with the same objective value as
/// [`greedy_maximize`] for submodular `F` (the sets themselves can differ
/// when two elements have exactly tied marginal gains), with far fewer
/// evaluations on large ground sets.
///
/// # Panics
///
/// Panics if `budget > f.ground_size()`.
pub fn lazy_greedy_maximize(f: &dyn SubmodularFunction, budget: usize) -> Vec<usize> {
    let n = f.ground_size();
    assert!(budget <= n, "budget {budget} exceeds ground set {n}");
    let mut selected: Vec<usize> = Vec::with_capacity(budget);
    // Seed the heap with all first-round gains.
    let mut heap: BinaryHeap<LazyEntry> = (0..n)
        .map(|v| LazyEntry {
            gain: f.marginal_gain(&[], v),
            element: v,
            round: 0,
        })
        .collect();
    let mut round = 0usize;
    while selected.len() < budget {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            selected.push(top.element);
            round += 1;
        } else {
            let gain = f.marginal_gain(&selected, top.element);
            heap.push(LazyEntry {
                gain,
                element: top.element,
                round,
            });
        }
    }
    selected
}

/// Exhaustive search over all subsets of size `<= budget`. Exponential —
/// only for tests and the approximation-ratio bench.
///
/// # Panics
///
/// Panics if the ground set exceeds 20 elements (guard against accidental
/// blowup).
pub fn brute_force_maximize(f: &dyn SubmodularFunction, budget: usize) -> (Vec<usize>, f64) {
    let n = f.ground_size();
    assert!(n <= 20, "brute force is limited to 20 elements, got {n}");
    let mut best_set = Vec::new();
    let mut best_val = f.eval(&[]);
    for mask in 0u32..(1u32 << n) {
        if (mask.count_ones() as usize) > budget {
            continue;
        }
        let set: Vec<usize> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
        let val = f.eval(&set);
        if val > best_val {
            best_val = val;
            best_set = set;
        }
    }
    (best_set, best_val)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functions::CoverageFunction;
    use crate::graph::SimilarityGraph;
    use bees_rng::ChaCha8Rng;

    fn random_graph(n: usize, seed: u64) -> SimilarityGraph {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SimilarityGraph::from_pairwise(n, |_, _| {
            if rng.gen_bool(0.4) {
                rng.gen_range(0.0..1.0)
            } else {
                0.0
            }
        })
    }

    #[test]
    fn greedy_selects_distinct_elements() {
        let g = random_graph(10, 1);
        let f = CoverageFunction::new(&g);
        let sel = greedy_maximize(&f, 5);
        assert_eq!(sel.len(), 5);
        let mut sorted = sel.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5);
    }

    #[test]
    fn lazy_and_naive_greedy_reach_the_same_value() {
        for seed in 0..5u64 {
            let g = random_graph(12, seed);
            let f = CoverageFunction::new(&g);
            for budget in [1, 3, 6, 12] {
                let naive = greedy_maximize(&f, budget);
                let lazy = lazy_greedy_maximize(&f, budget);
                assert_eq!(naive.len(), lazy.len(), "seed {seed} budget {budget}");
                // Exact set agreement is not guaranteed on exactly tied
                // gains (floating-point ulp effects), but the objective
                // value must match.
                assert!(
                    (f.eval(&naive) - f.eval(&lazy)).abs() < 1e-9,
                    "seed {seed} budget {budget}: {naive:?} vs {lazy:?}"
                );
            }
        }
    }

    #[test]
    fn greedy_meets_approximation_bound() {
        // F(greedy) >= (1 - 1/e) F(opt) for monotone submodular F.
        let bound = 1.0 - 1.0 / std::f64::consts::E;
        for seed in 0..6u64 {
            let g = random_graph(9, seed + 100);
            let f = CoverageFunction::new(&g);
            for budget in [1usize, 2, 4] {
                let greedy_val = f.eval(&greedy_maximize(&f, budget));
                let (_, opt_val) = brute_force_maximize(&f, budget);
                assert!(
                    greedy_val >= bound * opt_val - 1e-9,
                    "seed {seed} budget {budget}: {greedy_val} < {bound} * {opt_val}"
                );
            }
        }
    }

    #[test]
    fn zero_budget_selects_nothing() {
        let g = random_graph(5, 3);
        let f = CoverageFunction::new(&g);
        assert!(greedy_maximize(&f, 0).is_empty());
        assert!(lazy_greedy_maximize(&f, 0).is_empty());
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn budget_above_ground_size_panics() {
        let g = random_graph(3, 4);
        let f = CoverageFunction::new(&g);
        let _ = greedy_maximize(&f, 4);
    }

    #[test]
    fn first_pick_maximizes_singleton_value() {
        let g = random_graph(8, 9);
        let f = CoverageFunction::new(&g);
        let sel = greedy_maximize(&f, 1);
        let best: f64 = (0..8).map(|v| f.eval(&[v])).fold(f64::MIN, f64::max);
        assert!((f.eval(&sel) - best).abs() < 1e-12);
    }
}
