//! Deterministic-runtime scaling: MIH rescoring throughput across thread
//! counts.
//!
//! The matcher scores one pair of descriptor sets sequentially; the
//! parallelism lives one level up, where `MihIndex` fans its candidate
//! pairs out over the runtime. This bench queries a MIH index through
//! `FeatureIndex::query` under `bees_runtime` thread counts 1/2/4/8 and
//! reports candidate pairs rescored per second plus speedup over the
//! single-thread run. Every indexed image and every probe re-observes one
//! base set, so each query rescores the same fixed candidate set: the
//! whole index. The correctness half of the story — hits byte-identical
//! at every thread count — is asserted on every run, not just in the
//! tests: the fixed chunking of the deterministic runtime means thread
//! count may only move the wall clock.

use crate::args::ExpArgs;
use crate::experiments::query_throughput::random_features;
use crate::perf::{write_json_lines, Metric};
use crate::table::Table;
use bees_features::descriptor::{BinaryDescriptor, Descriptors};
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, ImageFeatures};
use bees_index::{FeatureIndex, ImageId, MihIndex, Query, QueryHit};
use bees_rng::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// One thread count's measurement.
#[derive(Debug, Clone)]
pub struct RuntimeCell {
    /// `bees_runtime` thread count.
    pub threads: usize,
    /// Candidate pairs rescored per second.
    pub pairs_per_s: f64,
    /// Speedup over the 1-thread cell.
    pub speedup: f64,
}

/// Full thread sweep.
#[derive(Debug, Clone)]
pub struct RuntimeScalingResult {
    /// One cell per thread count, ascending.
    pub cells: Vec<RuntimeCell>,
    /// Whether every thread count produced byte-identical hits.
    pub deterministic: bool,
}

impl RuntimeScalingResult {
    /// The perf-trajectory metric lines for `--json-out`.
    pub fn metrics(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for c in &self.cells {
            let case = format!("threads{}", c.threads);
            out.push(Metric::new(
                "runtime_scaling",
                &case,
                "pairs_per_s",
                c.pairs_per_s,
            ));
            out.push(Metric::new("runtime_scaling", &case, "speedup", c.speedup));
        }
        out
    }

    /// Prints the sweep table.
    pub fn print(&self) {
        println!("\n== Runtime scaling: MIH rescoring pairs/s by thread count ==");
        let mut t = Table::new(vec!["threads", "pairs/s", "speedup"]);
        for c in &self.cells {
            t.row(vec![
                c.threads.to_string(),
                format!("{:.0}", c.pairs_per_s),
                format!("{:.2}x", c.speedup),
            ]);
        }
        t.print();
        println!("hits byte-identical across thread counts: {}", {
            self.deterministic
        });
    }
}

/// Leading descriptors every observation keeps exact: their word
/// collisions make every indexed image a candidate for every probe.
const ANCHORS: usize = 2;

/// A re-observation of `base`: one bit flipped in each 64-bit word of
/// every descriptor past the anchors. Two observations then differ by 0 or
/// 2 bits per word — close enough to match, but out of reach of MIH's
/// radius-1 word probes — so candidate generation stays a small share of
/// the query and rescoring dominates.
fn reobserve(base: &ImageFeatures, rng: &mut ChaCha8Rng) -> ImageFeatures {
    let Descriptors::Binary(descs) = &base.descriptors else {
        unreachable!("the base set is binary");
    };
    let out: Vec<BinaryDescriptor> = descs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut bytes = *d.as_bytes();
            if i >= ANCHORS {
                for word in 0..4 {
                    let bit = 64 * word + rng.gen_range(0..64usize);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                }
            }
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    ImageFeatures {
        keypoints: base.keypoints.clone(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&out)),
    }
}

fn query_all(index: &MihIndex, probes: &[ImageFeatures]) -> Vec<Vec<QueryHit>> {
    probes
        .iter()
        .map(|p| index.query(&Query::top_k(p, index.len())))
        .collect()
}

/// Runs the thread sweep. Restores the ambient thread count before
/// returning (panic-safe enough for a bench binary).
pub fn run(args: &ExpArgs) -> RuntimeScalingResult {
    let n_images = args.scaled(128, 16);
    let n_descs = args.scaled(150, 40);
    let n_probes = args.scaled(8, 2);
    let reps = if args.quick { 1 } else { 10 };
    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let base = random_features(&mut rng, n_descs);
    let mut index = MihIndex::new(SimilarityConfig::default());
    index.insert_batch(
        (0..n_images)
            .map(|i| (ImageId(i as u64), reobserve(&base, &mut rng)))
            .collect(),
    );
    let probes: Vec<ImageFeatures> = (0..n_probes).map(|_| reobserve(&base, &mut rng)).collect();

    const THREADS: [usize; 4] = [1, 2, 4, 8];
    // Warmup + correctness capture.
    let mut reference: Option<Vec<Vec<QueryHit>>> = None;
    let mut deterministic = true;
    for threads in THREADS {
        bees_runtime::set_threads(threads);
        let hits = query_all(&index, &probes);
        match &reference {
            None => reference = Some(hits),
            Some(r) => deterministic &= *r == hits,
        }
    }
    // Thread counts take turns, one pass over the probes each, so a drift
    // in host speed lands on every count alike.
    let mut elapsed = [0.0f64; THREADS.len()];
    for _ in 0..reps {
        for (slot, threads) in elapsed.iter_mut().zip(THREADS) {
            bees_runtime::set_threads(threads);
            let t = Instant::now();
            black_box(query_all(&index, &probes));
            *slot += t.elapsed().as_secs_f64();
        }
    }
    let pairs = (n_probes * n_images * reps) as f64;
    let cells: Vec<RuntimeCell> = THREADS
        .iter()
        .zip(elapsed)
        .map(|(&threads, secs)| RuntimeCell {
            threads,
            pairs_per_s: pairs / secs.max(1e-12),
            speedup: elapsed[0] / secs.max(1e-12),
        })
        .collect();
    bees_runtime::set_threads(0);
    assert!(
        deterministic,
        "thread count changed the hits — determinism violated"
    );
    let candidates_hit = reference
        .as_ref()
        .is_some_and(|r| r.iter().all(|hits| hits.len() == n_images));
    assert!(
        candidates_hit,
        "every indexed image must be a scored candidate"
    );

    let result = RuntimeScalingResult {
        cells,
        deterministic,
    };
    if let Some(path) = &args.json_out {
        write_json_lines(path, &result.metrics());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_sweep_is_deterministic() {
        let args = ExpArgs {
            scale: 0.05,
            quick: true,
            seed: 5,
            ..ExpArgs::default()
        };
        // `run` itself asserts byte-identical hits per thread count.
        let r = run(&args);
        assert!(r.deterministic);
        assert_eq!(r.cells.len(), 4);
        assert_eq!(r.cells[0].threads, 1);
        assert!((r.cells[0].speedup - 1.0).abs() < 1e-9);
        for c in &r.cells {
            assert!(c.pairs_per_s > 0.0, "cell {c:?}");
        }
        assert_eq!(r.metrics().len(), 8);
    }
}
