//! Pins the allocation shape of the block-DCT codec on a 384×288 colour
//! payload: a warmed call allocates its planes and output, not per block,
//! per row or per runtime chunk. Measured with a counting global allocator
//! (the `bees-telemetry` `no_alloc` pattern), as `ssim_alloc.rs` does.
//!
//! Per call:
//! - `decode_rgb`: three planes and the output pixels;
//! - `encode_rgb`: three planes and one output vector that starts with the
//!   header, sized for a byte per sample and shrunk to the stream once
//!   written;
//! - `encode_progressive_rgb`: three planes, each plane's zigzag blocks
//!   and one output vector that holds the header, the scan directory and
//!   every scan, sized for a byte per coefficient and shrunk once written;
//! - `recompress`: two decodes, two luma images, one encode and one
//!   sequential SSIM.
//!
//! Nothing here fans out, so no count depends on the worker count.

use bees_image::codec::{self, progressive};
use bees_image::{Rgb, RgbImage};
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

/// Warmed-call budgets. `ENCODE_BUDGET`, `PROGRESSIVE_BUDGET` and
/// `RECOMPRESS_BUDGET` are the measured counts at every `BEES_THREADS`
/// width; a per-block or per-chunk allocation would add hundreds, and a
/// byte vector per scan grown from empty dozens.
const DECODE_BUDGET: usize = 8;
const ENCODE_BUDGET: usize = 5;
const PROGRESSIVE_BUDGET: usize = 8;
const RECOMPRESS_BUDGET: usize = 36;

/// The fewest allocations over three warmed calls. The counter is
/// process-wide, so worker-thread allocations count, but so can one the
/// test harness makes on another thread inside a call's window; the
/// minimum is the call's own count.
fn warmed_alloc_count<T>(mut call: impl FnMut() -> T) -> usize {
    drop(call());
    (0..3)
        .map(|_| {
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            drop(call());
            ALLOCATIONS.load(Ordering::SeqCst) - before
        })
        .min()
        .expect("three calls")
}

/// A textured colour frame (integer arithmetic only).
fn photo(w: u32, h: u32) -> RgbImage {
    RgbImage::from_fn(w, h, |x, y| {
        let v = (x * 7 + y * 13) ^ (x * y);
        Rgb::new(
            (v % 251) as u8,
            ((v >> 2) % 241) as u8,
            (128 + (x + y) % 96) as u8,
        )
    })
}

#[test]
fn warmed_codec_calls_allocate_per_plane_not_per_block() {
    // Single test so no concurrent test thread can perturb the counter.
    let img = photo(384, 288);
    let payload = codec::encode_rgb(&img, 85).unwrap();
    let decoded = codec::decode_rgb(&payload).unwrap();
    let counts = [
        (
            "decode_rgb",
            warmed_alloc_count(|| codec::decode_rgb(&payload).unwrap()),
            DECODE_BUDGET,
        ),
        (
            "encode_rgb",
            warmed_alloc_count(|| codec::encode_rgb(&decoded, 85).unwrap()),
            ENCODE_BUDGET,
        ),
        (
            "encode_progressive_rgb",
            warmed_alloc_count(|| progressive::encode_progressive_rgb(&decoded, 85).unwrap()),
            PROGRESSIVE_BUDGET,
        ),
        (
            "recompress",
            warmed_alloc_count(|| codec::recompress(&payload, 40).expect("q85 shrinks at q40")),
            RECOMPRESS_BUDGET,
        ),
    ];
    for (call, count, budget) in counts {
        assert!(
            count <= budget,
            "{call}: {count} allocations on a warmed 384x288 call, budget {budget}"
        );
    }
}
