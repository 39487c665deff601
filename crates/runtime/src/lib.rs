#![warn(missing_docs)]

//! Deterministic scoped worker pool for the BEES reproduction.
//!
//! Every hot path in the pipeline — a batch's feature extraction and image
//! encoding (one image per task), brute-force L2 matching, index candidate
//! rescoring, pairwise similarity graphs, lazy greedy's first-round gains,
//! and the cold-recompression pass (one blob per task) — is a fan-out over
//! independent work items. ORB's pyramid levels fan out too, but run inline
//! when called from inside one of those tasks; the block-DCT codec runs each
//! image sequentially. This crate provides that fan-out with one
//! non-negotiable property: **the
//! output is bit-identical at 1, 2, or N threads**.
//!
//! # Determinism model
//!
//! [`Runtime::par_map`] and friends split the input range into chunks whose
//! boundaries depend only on the input length, never on the thread count.
//! Workers claim chunks dynamically (work stealing via an atomic cursor),
//! but results are merged back in ascending chunk order, so `par_map`
//! output is the same `Vec` a sequential `map` would produce.
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
//! A width of 1 (or a call from inside a worker thread — nested parallelism
//! is flattened rather than oversubscribed) runs the exact same chunked code
//! path inline without spawning.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::thread::ScopedJoinHandle;

/// Target number of chunks a range is split into. Fixed (rather than derived
/// from the thread count) so the chunk decomposition — and therefore every
/// merge order — is a function of the input length alone.
const TARGET_CHUNKS: usize = 64;

/// Programmatic thread-count override; 0 means "no override".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside pool workers: nested `par_map` calls run inline.
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

/// The thread count new [`Runtime::current`] handles will use.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// Whether the calling thread is a pool worker (nested calls run inline).
pub fn in_worker() -> bool {
    IN_POOL.with(|p| p.get())
}

/// A handle selecting how many worker threads parallel operations may use.
///
/// The handle is a plain value: scoped threads are spawned per call and
/// joined before the call returns, so there is no pool lifecycle to manage
/// and borrowed (non-`'static`) data can flow into the closures freely.
///
/// # Examples
///
/// ```
/// use bees_runtime::Runtime;
///
/// let rt = Runtime::new(4);
/// let squares = rt.par_map_range(10, |i| i * i);
/// assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Runtime {
    threads: usize,
}

impl Default for Runtime {
    fn default() -> Self {
        Runtime::current()
    }
}

impl Runtime {
    /// Creates a handle with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "runtime needs at least one thread");
        Runtime { threads }
    }

    /// Creates a handle using the global thread-count setting (see
    /// [`set_threads`] and the `BEES_THREADS` environment variable).
    pub fn current() -> Self {
        Runtime {
            threads: current_threads().max(1),
        }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Chunk length for an input of `n` items — a function of `n` only.
    fn chunk_len(n: usize) -> usize {
        n.div_ceil(TARGET_CHUNKS).max(1)
    }

    /// Runs `work` once per chunk of `0..n` and returns the per-chunk
    /// outputs in ascending chunk order. The scheduling backbone of every
    /// public operation.
    fn run_chunked<R, W>(&self, n: usize, work: W) -> Vec<R>
    where
        R: Send,
        W: Fn(usize, usize) -> R + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let chunk = Self::chunk_len(n);
        let n_chunks = n.div_ceil(chunk);
        let run_chunk = |c: usize| {
            let start = c * chunk;
            work(start, (start + chunk).min(n))
        };
        let workers = self.threads.min(n_chunks);
        if workers <= 1 || in_worker() {
            return (0..n_chunks).map(run_chunk).collect();
        }
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
        std::thread::scope(|scope| {
            let handles = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        IN_POOL.with(|p| p.set(true));
                        loop {
                            let c = cursor.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let out = run_chunk(c);
                            results
                                .lock()
                                .expect("no panic while holding lock")
                                .push((c, out));
                        }
                    })
                })
                .collect();
            join_all(handles);
        });
        let mut chunks = results.into_inner().expect("workers joined");
        chunks.sort_unstable_by_key(|&(c, _)| c);
        chunks.into_iter().map(|(_, r)| r).collect()
    }

    /// Maps `f` over `0..n`, returning results in index order.
    ///
    /// Bit-identical to `(0..n).map(f).collect()` at any thread count.
    pub fn par_map_range<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunks = self.run_chunked(n, |start, end| (start..end).map(&f).collect::<Vec<R>>());
        let mut out = Vec::with_capacity(n);
        for c in chunks {
            out.extend(c);
        }
        out
    }

    /// Maps `f` over a slice, returning results in item order.
    ///
    /// # Examples
    ///
    /// ```
    /// use bees_runtime::Runtime;
    ///
    /// let words = ["a", "bb", "ccc"];
    /// let lens = Runtime::current().par_map(&words, |w| w.len());
    /// assert_eq!(lens, vec![1, 2, 3]);
    /// ```
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_range(items.len(), |i| f(&items[i]))
    }

    /// Runs `f` on every element of `items` in place, passing the element's
    /// index. Each worker owns a disjoint contiguous sub-slice, so no
    /// synchronization is needed beyond the final join; as with the other
    /// primitives the result is independent of the thread count because each
    /// closure sees exactly one `(index, element)` pair.
    ///
    /// Used by the sharded index to build / query all shards concurrently.
    ///
    /// # Examples
    ///
    /// ```
    /// use bees_runtime::Runtime;
    ///
    /// let mut v = vec![10u64, 20, 30];
    /// Runtime::new(2).par_for_each_mut(&mut v, |i, x| *x += i as u64);
    /// assert_eq!(v, vec![10, 21, 32]);
    /// ```
    pub fn par_for_each_mut<T, F>(&self, items: &mut [T], f: F)
    where
        T: Send,
        F: Fn(usize, &mut T) + Sync,
    {
        let n = items.len();
        let workers = self.threads.min(n);
        if workers <= 1 || in_worker() {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let per_worker = n.div_ceil(workers);
        std::thread::scope(|scope| {
            let handles = items
                .chunks_mut(per_worker)
                .enumerate()
                .map(|(w, slab)| {
                    let f = &f;
                    scope.spawn(move || {
                        IN_POOL.with(|p| p.set(true));
                        for (i, item) in slab.iter_mut().enumerate() {
                            f(w * per_worker + i, item);
                        }
                    })
                })
                .collect();
            join_all(handles);
        });
    }
}

/// Joins every worker, then re-raises the first worker panic with its own
/// payload. Left to itself, `std::thread::scope` would replace the message
/// with "a scoped thread panicked".
fn join_all(handles: Vec<ScopedJoinHandle<'_, ()>>) {
    let mut first = None;
    for handle in handles {
        if let Err(payload) = handle.join() {
            first.get_or_insert(payload);
        }
    }
    if let Some(payload) = first {
        std::panic::resume_unwind(payload);
    }
}

/// [`Runtime::par_map_range`] on the current global runtime.
pub fn par_map_range<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    Runtime::current().par_map_range(n, f)
}

/// [`Runtime::par_map`] on the current global runtime.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    Runtime::current().par_map(items, f)
}

/// [`Runtime::par_for_each_mut`] on the current global runtime.
pub fn par_for_each_mut<T, F>(items: &mut [T], f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    Runtime::current().par_for_each_mut(items, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_range_matches_sequential() {
        for threads in [1, 2, 3, 8, 17] {
            let rt = Runtime::new(threads);
            for n in [0usize, 1, 2, 63, 64, 65, 1000] {
                let par = rt.par_map_range(n, |i| i * 3 + 1);
                let seq: Vec<usize> = (0..n).map(|i| i * 3 + 1).collect();
                assert_eq!(par, seq, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn par_map_preserves_item_order() {
        let items: Vec<i64> = (0..500).map(|i| i - 250).collect();
        let rt = Runtime::new(4);
        assert_eq!(
            rt.par_map(&items, |&x| x * x),
            items.iter().map(|&x| x * x).collect::<Vec<_>>()
        );
    }

    #[test]
    fn nested_calls_run_inline() {
        let rt = Runtime::new(4);
        let out = rt.par_map_range(8, |i| {
            assert!(in_worker(), "item {i} ran outside a pool worker");
            // The nested call must not deadlock or oversubscribe; it simply
            // runs inline inside the worker, on the worker's own thread.
            let worker = std::thread::current().id();
            let nested = rt.par_map_range(16, move |j| (std::thread::current().id(), i * 16 + j));
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
        Runtime::new(4).par_map_range(100, |i| {
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
        Runtime::new(4).par_for_each_mut(&mut v, |i, _| assert_ne!(i, 5, "boom"));
    }

    #[test]
    fn set_threads_overrides_and_resets() {
        set_threads(3);
        assert_eq!(current_threads(), 3);
        assert_eq!(Runtime::current().threads(), 3);
        set_threads(0);
        assert!(current_threads() >= 1);
    }

    #[test]
    fn for_each_mut_matches_sequential_at_any_thread_count() {
        for threads in [1, 2, 3, 8, 17] {
            let rt = Runtime::new(threads);
            for n in [0usize, 1, 2, 7, 64, 1000] {
                let mut par: Vec<u64> = (0..n as u64).collect();
                rt.par_for_each_mut(&mut par, |i, x| *x = x.wrapping_mul(31) ^ i as u64);
                let seq: Vec<u64> = (0..n as u64).map(|x| x.wrapping_mul(31) ^ x).collect();
                assert_eq!(par, seq, "threads={threads} n={n}");
            }
        }
    }

    #[test]
    fn for_each_mut_nested_inside_par_map_runs_inline() {
        let rt = Runtime::new(4);
        let out = rt.par_map_range(6, |i| {
            let mut inner = vec![i; 8];
            rt.par_for_each_mut(&mut inner, |j, x| *x += j);
            inner.iter().sum::<usize>()
        });
        let expected: Vec<usize> = (0..6).map(|i| 8 * i + 28).collect();
        assert_eq!(out, expected);
    }
}
