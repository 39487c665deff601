//! Server-side query throughput across index backends.
//!
//! Builds the same random image corpus (near-duplicate pairs plus
//! distractors) into each backend — exact linear scan, MIH, and MIH
//! sharded 4 ways — and measures sustained `query_with_scratch` throughput
//! with one warmed [`QueryScratch`] per backend, exactly how the server
//! runs it. Backends answer from the same corpus, so cross-backend hit
//! counts double as a sanity check (MIH may only miss, never fabricate).

use crate::args::ExpArgs;
use crate::perf::{write_json_lines, Metric};
use crate::table::Table;
use bees_features::descriptor::{BinaryDescriptor, Descriptors};
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, LinearIndex, MihIndex, Query, QueryScratch, ShardedIndex};
use bees_rng::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

/// One backend's measurement.
#[derive(Debug, Clone)]
pub struct QueryCell {
    /// Backend label (`linear`, `mih`, `mih_sharded4`).
    pub backend: &'static str,
    /// Indexed images.
    pub images: usize,
    /// Queries issued (across all repetitions).
    pub queries: usize,
    /// Queries answered per second.
    pub queries_per_s: f64,
    /// Queries that returned at least one hit (sanity, not a perf metric).
    pub hits: usize,
}

/// Full backend sweep.
#[derive(Debug, Clone)]
pub struct QueryThroughputResult {
    /// One cell per backend.
    pub cells: Vec<QueryCell>,
}

impl QueryThroughputResult {
    /// The perf-trajectory metric lines for `--json-out`.
    pub fn metrics(&self) -> Vec<Metric> {
        self.cells
            .iter()
            .map(|c| {
                Metric::new(
                    "query_throughput",
                    c.backend,
                    "queries_per_s",
                    c.queries_per_s,
                )
            })
            .collect()
    }

    /// Prints the sweep table.
    pub fn print(&self) {
        println!("\n== Index query throughput (warmed scratch) ==");
        let mut t = Table::new(vec!["backend", "images", "queries", "hits", "queries/s"]);
        for c in &self.cells {
            t.row(vec![
                c.backend.to_string(),
                c.images.to_string(),
                c.queries.to_string(),
                c.hits.to_string(),
                format!("{:.0}", c.queries_per_s),
            ]);
        }
        t.print();
    }
}

/// `n_descs` uniformly random binary descriptors.
pub(crate) fn random_features(rng: &mut ChaCha8Rng, n_descs: usize) -> ImageFeatures {
    let descs: Vec<BinaryDescriptor> = (0..n_descs)
        .map(|_| {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    ImageFeatures {
        keypoints: descs.iter().map(|_| Keypoint::default()).collect(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&descs)),
    }
}

/// Flips `k` bits of each descriptor (a noisy re-observation).
fn perturb(f: &ImageFeatures, rng: &mut ChaCha8Rng, k: usize) -> ImageFeatures {
    let Descriptors::Binary(descs) = &f.descriptors else {
        return f.clone();
    };
    let out: Vec<BinaryDescriptor> = descs
        .iter()
        .map(|d| {
            let mut bytes = *d.as_bytes();
            for _ in 0..k {
                let bit = rng.gen_range(0..256usize);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    ImageFeatures {
        keypoints: f.keypoints.clone(),
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(&out)),
    }
}

fn measure(
    backend: &'static str,
    index: &dyn FeatureIndex,
    probes: &[ImageFeatures],
    reps: usize,
) -> QueryCell {
    let mut scratch = QueryScratch::new();
    // Warmup pass grows the scratch to steady state.
    let mut hits = 0usize;
    for p in probes {
        hits += usize::from(
            !index
                .query_with_scratch(&Query::new(p), &mut scratch)
                .is_empty(),
        );
    }
    let t = Instant::now();
    for _ in 0..reps {
        for p in probes {
            black_box(index.query_with_scratch(&Query::new(p), &mut scratch));
        }
    }
    let elapsed = t.elapsed().as_secs_f64();
    let queries = probes.len() * reps;
    QueryCell {
        backend,
        images: index.len(),
        queries,
        queries_per_s: queries as f64 / elapsed.max(1e-12),
        hits,
    }
}

/// Runs the backend sweep.
pub fn run(args: &ExpArgs) -> QueryThroughputResult {
    let n_images = args.scaled(200, 20);
    let n_descs = args.scaled(40, 8);
    let n_probes = args.scaled(32, 8);
    let reps = if args.quick { 1 } else { 3 };
    let cfg = SimilarityConfig::default();

    let mut rng = ChaCha8Rng::seed_from_u64(args.seed);
    let corpus: Vec<ImageFeatures> = (0..n_images)
        .map(|_| random_features(&mut rng, n_descs))
        .collect();
    let items: Vec<(ImageId, ImageFeatures)> = corpus
        .iter()
        .enumerate()
        .map(|(i, f)| (ImageId(i as u64), f.clone()))
        .collect();
    // Probes: noisy re-observations of a deterministic corpus slice.
    let probes: Vec<ImageFeatures> = (0..n_probes)
        .map(|i| perturb(&corpus[i % corpus.len()], &mut rng, 2))
        .collect();

    let mut linear = LinearIndex::new(cfg);
    linear.insert_batch(items.clone());
    let mut mih = MihIndex::new(cfg);
    mih.insert_batch(items.clone());
    let mut sharded = ShardedIndex::with_shards(4, || MihIndex::new(cfg));
    sharded.insert_batch(items);

    let cells = vec![
        measure("linear", &linear, &probes, reps),
        measure("mih", &mih, &probes, reps),
        measure("mih_sharded4", &sharded, &probes, reps),
    ];
    let result = QueryThroughputResult { cells };
    if let Some(path) = &args.json_out {
        write_json_lines(path, &result.metrics());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_answer_and_throughput_is_positive() {
        let args = ExpArgs {
            scale: 0.1,
            quick: true,
            seed: 11,
            ..ExpArgs::default()
        };
        let r = run(&args);
        assert_eq!(r.cells.len(), 3);
        for c in &r.cells {
            assert!(c.queries_per_s > 0.0, "cell {c:?}");
            // Noisy re-observations of indexed images must hit on every
            // backend (2 flipped bits keep exact 64-bit words).
            assert!(c.hits > 0, "cell {c:?}");
        }
        // Exact and accelerated backends see the same corpus: identical
        // hit counts.
        assert_eq!(r.cells[0].hits, r.cells[1].hits);
        assert_eq!(r.cells[1].hits, r.cells[2].hits);
        assert_eq!(r.metrics().len(), 3);
    }
}
