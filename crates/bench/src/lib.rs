#![warn(missing_docs)]

//! Experiment harnesses reproducing every table and figure of the BEES
//! paper's evaluation (§IV), plus the perf benches whose JSON lines
//! `BENCH_baseline.json` records (see [`perf`]).
//!
//! Each experiment lives in [`experiments`] as a library function returning
//! a typed result with a `print` method; the `src/bin/` binaries are thin
//! CLI wrappers (`--scale`, `--seed`, `--quick`) and `run_all` executes the
//! full suite. `EXPERIMENTS.md` at the workspace root records paper-vs-
//! measured for each.
//!
//! Absolute numbers differ from the paper (synthetic images, simulated
//! battery/network); the *shapes* — orderings, crossovers, relative
//! factors — are the reproduction targets.

pub mod args;
pub mod experiments;
pub mod perf;
pub mod table;
