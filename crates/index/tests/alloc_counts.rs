//! Pins the scratch-arena contract: a warmed `candidates_into` call makes
//! no allocation, at any index size. Measured with a counting global
//! allocator (the `bees-telemetry` `no_alloc` pattern) rather than
//! asserted by inspection.
//!
//! The probe walks the index's posting chains and appends positions to
//! the scratch's candidate list, which it then sorts and deduplicates in
//! place, so once the list has grown to its high-water mark nothing is
//! left to allocate.

use bees_features::descriptor::{BinaryDescriptor, Descriptors};
use bees_features::similarity::SimilarityConfig;
use bees_features::{DescriptorBlock, ImageFeatures, Keypoint};
use bees_index::{FeatureIndex, ImageId, MihIndex, QueryScratch};
use bees_rng::ChaCha8Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::SeqCst)
}

fn random_features(rng: &mut ChaCha8Rng, n: usize) -> ImageFeatures {
    let descs: Vec<BinaryDescriptor> = (0..n)
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

fn build(seed: u64, n_images: usize) -> (MihIndex, ImageFeatures) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut idx = MihIndex::new(SimilarityConfig::default());
    let shared = random_features(&mut rng, 10);
    for i in 0..n_images {
        // Every image shares the probe's words, so every posting chain
        // holds every image and every image becomes a candidate — the
        // worst case for the candidate list's size.
        idx.insert(ImageId(i as u64), shared.clone());
    }
    (idx, shared)
}

/// Warmed-call allocation budget: none.
const WARMED_ALLOC_BUDGET: usize = 0;

fn warmed_alloc_count(idx: &MihIndex, probe: &ImageFeatures, scratch: &mut QueryScratch) -> usize {
    // Two warmup calls grow the candidate list to steady state.
    idx.candidates_into(probe, scratch);
    idx.candidates_into(probe, scratch);
    let before = allocations();
    idx.candidates_into(probe, scratch);
    allocations() - before
}

#[test]
fn warmed_candidate_merge_allocation_is_constant_in_index_size() {
    // Single test so no concurrent test thread can perturb the counter.
    let (small_idx, small_probe) = build(61, 8);
    let (large_idx, large_probe) = build(61, 64);
    assert_eq!(large_idx.len(), 64);

    let mut scratch = QueryScratch::new();
    let small = warmed_alloc_count(&small_idx, &small_probe, &mut scratch);
    assert_eq!(
        small, WARMED_ALLOC_BUDGET,
        "small index: {small} allocations on a warmed candidates_into call"
    );

    // 8x the images and candidates must not add allocations.
    let mut scratch = QueryScratch::new();
    let large = warmed_alloc_count(&large_idx, &large_probe, &mut scratch);
    assert_eq!(
        large, WARMED_ALLOC_BUDGET,
        "large index: {large} allocations on a warmed candidates_into call"
    );
}
