//! Pins the allocation shape of the binary matcher: a warmed
//! `jaccard_similarity` call on two binary feature sets makes a small
//! constant number of allocations, the same at 40, 150 and 300
//! descriptors and at every `bees_runtime` thread count. Measured with a
//! counting global allocator (the `bees-telemetry` `no_alloc` pattern)
//! rather than asserted by inspection.
//!
//! Per call: the forward and backward nearest-neighbor tables that the
//! pair kernel fills in one pass, and the match list, sized up front for
//! the most matches possible. A runtime fan-out inside the pair, or a match list that grows
//! as matches are pushed, would make the count depend on the thread count
//! or on the input.

use bees_features::similarity::{jaccard_similarity, SimilarityConfig};
use bees_features::{BinaryDescriptor, DescriptorBlock, Descriptors, ImageFeatures, Keypoint};
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

/// Warmed-call budget: forward table, backward table, match list.
const WARMED_ALLOC_BUDGET: usize = 3;

/// A query set and a train set that re-observes half of it with a few
/// flipped bits, so the cross-check has real matches to keep.
fn pair(n: usize) -> (ImageFeatures, ImageFeatures) {
    let mut rng = ChaCha8Rng::seed_from_u64(0xA110C + n as u64);
    let query: Vec<BinaryDescriptor> = (0..n)
        .map(|_| {
            let mut bytes = [0u8; 32];
            rng.fill(&mut bytes);
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    let train: Vec<BinaryDescriptor> = query
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let mut bytes = *d.as_bytes();
            let flips = if i % 2 == 0 { 4 } else { 256 };
            for _ in 0..flips {
                let bit = rng.gen_range(0..256usize);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            BinaryDescriptor::from_bytes(bytes)
        })
        .collect();
    (features(&query), features(&train))
}

fn features(descs: &[BinaryDescriptor]) -> ImageFeatures {
    ImageFeatures {
        keypoints: vec![Keypoint::default(); descs.len()],
        descriptors: Descriptors::Binary(DescriptorBlock::from_descriptors(descs)),
    }
}

/// The fewest allocations over three warmed calls. The counter is
/// process-wide, so worker-thread allocations count, but so can one the
/// test harness makes on another thread inside a call's window; the
/// minimum is the call's own count.
fn warmed_alloc_count(query: &ImageFeatures, train: &ImageFeatures) -> usize {
    let cfg = SimilarityConfig::default();
    let warm = jaccard_similarity(query, train, &cfg);
    assert!(warm > 0.0, "the pair must share matches");
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let s = jaccard_similarity(query, train, &cfg);
            let count = ALLOCATIONS.load(Ordering::SeqCst) - before;
            assert_eq!(s.to_bits(), warm.to_bits());
            count
        })
        .min()
        .expect("three calls")
}

#[test]
fn warmed_jaccard_allocation_is_constant_in_size_and_threads() {
    // Single test so no concurrent test thread can perturb the counter.
    let pairs: Vec<(usize, (ImageFeatures, ImageFeatures))> =
        [40, 150, 300].into_iter().map(|n| (n, pair(n))).collect();
    let mut counts = Vec::new();
    for threads in [1usize, 2, 8] {
        bees_runtime::set_threads(threads);
        for (n, (query, train)) in &pairs {
            counts.push((threads, *n, warmed_alloc_count(query, train)));
        }
    }
    bees_runtime::set_threads(0);
    for &(threads, n, count) in &counts {
        assert!(
            count <= WARMED_ALLOC_BUDGET,
            "{n} descriptors at {threads} threads: {count} allocations on a warmed call"
        );
    }
    assert!(
        counts.iter().all(|&(_, _, c)| c == counts[0].2),
        "allocation count changed with size or threads: {counts:?}"
    );
}
