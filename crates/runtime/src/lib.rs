#![warn(missing_docs)]

//! Deterministic scoped fan-out over whole work items for the BEES
//! reproduction.
//!
//! BEES is a per-image pipeline, so the work that pays to spread over the
//! host's cores is a whole independent item: an image of a batch (feature
//! extraction, speculative encodes, server preload), a blob of the
//! cold-recompression pass, a candidate pair being rescored, or an index
//! shard. Everything below an item — pyramid levels, planes, rows, blocks —
//! runs in order on the item's task. This crate provides that fan-out with
//! one non-negotiable property: **the output is bit-identical at 1, 2, or N
//! threads**.
//!
//! # Determinism model
//!
//! [`par_for_each_mut`] is the one scheduling path. It cuts a slice into at
//! most 64 chunks whose length depends only on the slice length, never on
//! the thread count, and workers claim chunks dynamically. Each closure call
//! sees exactly one `(index, item)` pair, so which worker ran it cannot show
//! in the result. [`par_map_range`] and [`par_map`] give every index its own
//! result slot and fill the slots through [`par_for_each_mut`], so they
//! return the `Vec` a sequential `map` would, with no merge step.
//!
//! The only requirement on the closures is that they are pure functions of
//! their index (no interior mutation observable across items).
//!
//! # Thread-count resolution
//!
//! The pool width comes from, in priority order:
//!
//! 1. a programmatic override ([`set_threads`], used by tests and benches),
//! 2. the `BEES_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A width of 1, or a call from inside a worker thread (nested parallelism
//! is flattened rather than oversubscribed), runs the same closures inline,
//! in index order, without spawning.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Most chunks a slice is cut into. Fixed (rather than derived from the
/// thread count) so the chunk decomposition is a function of the slice
/// length alone.
const MAX_CHUNKS: usize = 64;

/// Programmatic thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside pool workers: nested calls run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Default thread count: `BEES_THREADS` if set and positive, else the
/// machine's available parallelism. Cached after the first read.
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("BEES_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// Overrides the global thread count (`0` restores the `BEES_THREADS` /
/// available-parallelism default). Intended for tests and benches that sweep
/// thread counts inside one process; results must not change either way.
pub fn set_threads(threads: usize) {
    THREAD_OVERRIDE.store(threads, Ordering::SeqCst);
}

/// The thread count the next fan-out will use.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// Runs `f` on every element of `items` in place, passing the element's
/// index.
///
/// Workers claim fixed-length chunks of the slice, so no synchronization is
/// needed beyond the claim and the final join; the result is independent
/// of the thread count because each closure call sees exactly one
/// `(index, element)` pair. A worker's panic reaches the caller with its
/// own payload.
///
/// # Examples
///
/// ```
/// let mut v = vec![10u64, 20, 30];
/// bees_runtime::par_for_each_mut(&mut v, |i, x| *x += i as u64);
/// assert_eq!(v, vec![10, 21, 32]);
/// ```
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    for_each_on(current_threads(), items, f)
}

/// Maps `f` over `0..n`, returning results in index order.
///
/// Bit-identical to `(0..n).map(f).collect()` at any thread count.
///
/// # Examples
///
/// ```
/// let squares = bees_runtime::par_map_range(10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_range_on(current_threads(), n, f)
}

/// Maps `f` over a slice, returning results in item order.
///
/// # Examples
///
/// ```
/// let words = ["a", "bb", "ccc"];
/// let lens = bees_runtime::par_map(&words, |w| w.len());
/// assert_eq!(lens, vec![1, 2, 3]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_range(items.len(), |i| f(&items[i]))
}

/// [`par_map_range`] on `threads` workers: one slot per index, each filled
/// by the task that owns the index.
fn map_range_on<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    for_each_on(threads, &mut slots, |i, slot| *slot = Some(f(i)));
    slots
        .into_iter()
        .map(|slot| slot.expect("every slot is filled"))
        .collect()
}

/// [`par_for_each_mut`] on `threads` workers: the scheduling path behind
/// every public operation.
fn for_each_on<T, F>(threads: usize, items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let chunk = items.len().div_ceil(MAX_CHUNKS).max(1);
    let workers = threads.min(items.len().div_ceil(chunk));
    if workers <= 1 || IN_POOL.with(Cell::get) {
        for (i, item) in items.iter_mut().enumerate() {
            f(i, item);
        }
        return;
    }
    let chunks = Mutex::new(items.chunks_mut(chunk).enumerate());
    let claim = || {
        chunks
            .lock()
            .expect("no worker panics while claiming a chunk")
            .next()
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    IN_POOL.with(|p| p.set(true));
                    while let Some((c, slab)) = claim() {
                        for (i, item) in slab.iter_mut().enumerate() {
                            f(c * chunk + i, item);
                        }
                    }
                })
            })
            .collect();
        // Join every worker, then re-raise the first panic with its own
        // payload; left to itself, `std::thread::scope` would replace the
        // message with "a scoped thread panicked".
        let mut first = None;
        for handle in handles {
            if let Err(payload) = handle.join() {
                first.get_or_insert(payload);
            }
        }
        if let Some(payload) = first {
            std::panic::resume_unwind(payload);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_range_matches_sequential() {
        for threads in [1, 2, 3, 8, 17] {
            for n in [0usize, 1, 2, 63, 64, 65, 1000] {
                let par = map_range_on(threads, n, |i| i * 3 + 1);
                let seq: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(par, seq, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<i64> = (0..500).map(|i| i - 250).collect();
        assert_eq!(
            par_map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        let out = map_range_on(4, 8, |i| {
            assert!(
                IN_POOL.with(Cell::get),
                "item {i} ran outside a pool worker"
            );
            // The nested call must not deadlock or oversubscribe; it simply
            // runs inline inside the worker, on the worker's own thread.
            let worker = std::thread::current().id();
            let nested = map_range_on(4, 16, move |j| (std::thread::current().id(), i * 16 + j));
            assert!(
                nested.iter().all(|&(thread, _)| thread == worker),
                "a nested item of {i} left its worker thread"
            );
            nested.iter().map(|&(_, v)| v).sum::<usize>()
        });
        let expected: Vec<usize> = (0..8)
            .map(|i| (0..16).map(|j| i * 16 + j).sum::<usize>())
            .collect();
        assert_eq!(out, expected);
    }

    /// The worker's own panic message reaches the caller, not the generic
    /// one `std::thread::scope` raises for an unjoined panicked thread.
    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        map_range_on(4, 100, |i| {
            if i == 57 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn for_each_mut_worker_panic_keeps_its_message() {
        let mut v = vec![0u8; 8];
        for_each_on(4, &mut v, |i, _| assert_ne!(i, 5, "boom"));
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        set_threads(3);
        assert_eq!(current_threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn for_each_mut_matches_sequential_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 17] {
            for n in [0usize, 1, 2, 7, 64, 65, 1000] {
                let mut par: Vec<u64> = (0..n as u64).collect();
                for_each_on(threads, &mut par, |i, x| *x = x.wrapping_mul(31) ^ i as u64);
                let seq: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(31) ^ x).collect();
                assert_eq!(par, seq, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn for_each_mut_nested_inside_par_map_runs_inline() {
        let out = map_range_on(4, 6, |i| {
            let mut inner = vec![i; 8];
            for_each_on(4, &mut inner, |j, x| *x += j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| 8 * i + 28).collect();
        assert_eq!(out, expected);
    }
}
