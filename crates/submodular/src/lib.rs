#![warn(missing_docs)]

//! The Similarity-aware Submodular Maximization Model (SSMM).
//!
//! BEES' answer to **in-batch** redundancy (paper §III-B2): a batch of
//! images is a weighted graph `G = (V, E, w)` whose edge weights are
//! pairwise Jaccard similarities. Selecting the subset `S ⊆ V` that best
//! summarizes the batch is submodular maximization under a cardinality
//! budget — NP-complete in general, but a greedy algorithm achieves the
//! `(1 − 1/e) ≈ 0.632` worst-case guarantee for monotone submodular
//! objectives.
//!
//! SSMM's twist is the **budget**: instead of a user-fixed `b`, it cuts all
//! edges below a threshold `Tw` (itself energy-adaptive, same form as EDR)
//! and uses the number of resulting connected subgraphs as `b` — the more
//! similar a batch, the fewer subgraphs, the smaller the summary.
//!
//! * [`SimilarityGraph`] — dense symmetric weight matrix,
//! * [`partition_by_threshold`] — the `Tw` cut into connected subgraphs,
//! * [`CoverageFunction`] / [`DiversityFunction`] / [`WeightedObjective`] —
//!   the paper's `f_cov`, `f_div`, and their weighted sum,
//! * [`greedy_maximize`] / [`lazy_greedy_maximize`] — Algorithm 1's greedy
//!   selection (the lazy variant exploits submodularity for speed),
//! * [`Ssmm`] — the assembled model.
//!
//! # Examples
//!
//! ```
//! use bees_submodular::{SimilarityGraph, Ssmm};
//!
//! // Four images: 0 and 1 near-duplicates, 2 and 3 unique.
//! let mut g = SimilarityGraph::new(4);
//! g.set_weight(0, 1, 0.8);
//! g.set_weight(2, 3, 0.01);
//! let summary = Ssmm.summarize(&g, 0.05);
//! assert_eq!(summary.budget, 3); // {0,1}, {2}, {3}
//! assert_eq!(summary.selected.len(), 3);
//! ```

mod functions;
mod graph;
mod greedy;
mod ssmm;

pub use functions::{CoverageFunction, DiversityFunction, SubmodularFunction, WeightedObjective};
pub use graph::{partition_by_threshold, SimilarityGraph};
pub use greedy::{brute_force_maximize, greedy_maximize, lazy_greedy_maximize};
pub use ssmm::{Ssmm, SsmmSummary};
