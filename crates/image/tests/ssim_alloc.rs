//! Pins the allocation shape of `metrics::ssim`: a warmed call makes a
//! small constant number of allocations, the same at 96×72 and 384×288 and
//! at every `BEES_THREADS` width. Measured with a counting global allocator
//! (the `bees-telemetry` `no_alloc` pattern) rather than asserted by
//! inspection.
//!
//! Per call: the kernel, then per blurred plane, in turn, its `f32` input
//! (a, b, a², b² or ab, dropped once blurred), a row pad, a scratch plane
//! and an output. None of it scales with the image height or the worker
//! count; a row fan-out, a plane fan-out or a per-row buffer would.

use bees_image::{metrics, GrayImage};
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

/// Warmed-call budget: the measured count, 1 + 5 × 4.
const WARMED_ALLOC_BUDGET: usize = 21;

/// The fewest allocations over three warmed calls. The counter is
/// process-wide, so worker-thread allocations count, but so can one the
/// test harness makes on another thread inside a call's window; the
/// minimum is the call's own count.
fn warmed_alloc_count(w: u32, h: u32) -> usize {
    let a = GrayImage::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 251) as u8);
    let b = GrayImage::from_fn(w, h, |x, y| ((x * 5 + y * 3) % 239) as u8);
    metrics::ssim(&a, &b).unwrap();
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            metrics::ssim(&a, &b).unwrap();
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three calls")
}

#[test]
fn warmed_ssim_allocation_is_constant_in_image_size() {
    // Single test so no concurrent test thread can perturb the counter.
    let small = warmed_alloc_count(96, 72);
    let large = warmed_alloc_count(384, 288);
    assert!(
        small <= WARMED_ALLOC_BUDGET,
        "96x72: {small} allocations on a warmed ssim call"
    );
    assert_eq!(
        small, large,
        "allocation count changed with image size: {small} -> {large}"
    );
}
