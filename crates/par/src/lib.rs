//! Deterministic data parallelism for the PageRankVM workspace.
//!
//! This crate is the workspace's only threading substrate for CPU-bound
//! work (the testbed's node agents are actors, a different shape). It
//! has no external dependencies — no rayon, matching the vendored/
//! offline dependency policy; its only workspace dependency is
//! `prvm-obs`, whose opt-in timeline recorder the pool feeds — and it
//! is built entirely on [`std::thread::scope`], so it contains no
//! `unsafe` and no global executor state beyond one atomic.
//!
//! # The determinism contract
//!
//! Every combinator here is **bit-for-bit deterministic regardless of
//! thread count**:
//!
//! * work is split into *chunks* whose boundaries depend only on the
//!   input length ([`chunk_size`]), never on how many workers exist;
//! * workers *claim* chunks dynamically (an atomic cursor), but results
//!   are stitched back together **in chunk-index order**;
//! * [`Pool::fold_chunks`] therefore merges partial accumulators in a
//!   fixed left-to-right order, so even non-associative reductions
//!   (IEEE 754 addition!) produce the same bits at 1, 2 or 64 threads.
//!
//! The contract is what lets the profile-graph builder and the PageRank
//! sweep go parallel while the golden f64 bit-pattern tests stay green
//! (see DESIGN.md §10).
//!
//! # Profiling
//!
//! When the `prvm-obs` timeline recorder is enabled (`--trace`), every
//! chunk a worker claims is recorded as `(lane, label, chunk, start,
//! end)` — label is the enclosing span path plus `/chunk` — and each
//! spawned worker additionally records its whole lifetime on its lane,
//! so a worker that claimed zero chunks still shows up as a track.
//! Recording is observation-only: it never changes chunk boundaries or
//! stitch order, so the determinism contract is untouched; when the
//! recorder is off, the pool's only overhead is one relaxed atomic
//! load per combinator call.
//!
//! # Example
//!
//! ```
//! use prvm_par::Pool;
//!
//! let squares = Pool::new(4).map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Same bits at any thread count.
//! assert_eq!(squares, Pool::sequential().map(&[1u64, 2, 3, 4], |&x| x * x));
//! ```

#![warn(missing_docs)]
#![warn(clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Global worker-count override: 0 means "not set, use the hardware
/// default". Set once at process start by CLI `--threads` flags.
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide default worker count used by [`Pool::global`].
///
/// `0` resets to the hardware default
/// ([`std::thread::available_parallelism`]). Results of every pool
/// combinator are identical at any setting — this knob trades wall-clock
/// only, which is why a process-wide default is safe.
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// The worker count [`Pool::global`] currently resolves to.
#[must_use]
pub fn global_threads() -> usize {
    match GLOBAL_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        n => n,
    }
}

/// Fixed chunk size for `len` items: a function of the input length
/// **only**, so chunk boundaries — and with them every merge order —
/// are independent of the worker count.
///
/// The divisor 64 gives enough chunks for dynamic load balancing on any
/// realistic core count while keeping per-chunk overhead negligible.
#[must_use]
pub fn chunk_size(len: usize) -> usize {
    (len / 64).max(1)
}

/// A scoped worker pool of a fixed width.
///
/// `Pool` is a plain value (no spawned-at-construction threads): each
/// combinator call opens a [`std::thread::scope`], runs, and joins
/// before returning, so borrows of the caller's data need no `'static`
/// lifetime and a panicking task propagates to the caller on join.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A single-worker pool: every combinator runs inline on the
    /// calling thread, with no spawning at all.
    #[must_use]
    pub fn sequential() -> Self {
        Self { threads: 1 }
    }

    /// A pool sized by [`global_threads`] — the hardware default unless
    /// overridden via [`set_global_threads`].
    #[must_use]
    pub fn global() -> Self {
        Self::new(global_threads())
    }

    /// Worker count of this pool.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `work(chunk_index)` for every chunk index in `0..n_chunks`,
    /// returning the results **in chunk-index order**. Chunks are
    /// claimed dynamically by whichever worker is free; ordering is
    /// restored before returning, so scheduling never leaks into the
    /// output.
    fn run_chunks<R, F>(&self, n_chunks: usize, work: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        // Timeline recording is observation-only: chunk claiming and
        // result stitching are identical whether it is on or off.
        let profiling = prvm_obs::timeline::is_enabled();
        let chunk_label = if profiling {
            let path = prvm_obs::span::current_path().unwrap_or_else(|| "par".to_owned());
            format!("{path}/chunk")
        } else {
            String::new()
        };
        if self.threads == 1 || n_chunks <= 1 {
            if !profiling {
                return (0..n_chunks).map(work).collect();
            }
            // Inline on the caller's lane (0 unless nested in a worker).
            return (0..n_chunks)
                .map(|c| {
                    let t0 = prvm_obs::timeline::stamp();
                    let r = work(c);
                    prvm_obs::timeline::record(
                        &chunk_label,
                        Some(c as u64),
                        t0,
                        prvm_obs::timeline::stamp(),
                    );
                    r
                })
                .collect();
        }
        let worker_label = chunk_label
            .strip_suffix("chunk")
            .map(|prefix| format!("{prefix}worker"))
            .unwrap_or_default();
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
        let workers = self.threads.min(n_chunks);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let cursor = &cursor;
                let results = &results;
                let work = &work;
                let chunk_label = &chunk_label;
                let worker_label = &worker_label;
                scope.spawn(move || {
                    // Lane 0 is the orchestrating thread; workers take
                    // 1..=workers. Entering the lane registers the track
                    // even if this worker ends up claiming zero chunks.
                    let _lane = profiling.then(|| prvm_obs::timeline::enter_lane(w as u32 + 1));
                    let spawned = prvm_obs::timeline::stamp();
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= n_chunks {
                            break;
                        }
                        let t0 = prvm_obs::timeline::stamp();
                        let r = work(c);
                        if profiling {
                            prvm_obs::timeline::record(
                                chunk_label,
                                Some(c as u64),
                                t0,
                                prvm_obs::timeline::stamp(),
                            );
                        }
                        // A poisoned lock only means another worker panicked
                        // mid-push; the scope will re-raise that panic after
                        // join, so recovering the guard here is sound.
                        let mut guard = match results.lock() {
                            Ok(guard) => guard,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                        guard.push((c, r));
                    }
                    if profiling {
                        prvm_obs::timeline::record(
                            worker_label,
                            None,
                            spawned,
                            prvm_obs::timeline::stamp(),
                        );
                    }
                });
            }
        });
        let mut collected = match results.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        collected.sort_unstable_by_key(|&(c, _)| c);
        collected.into_iter().map(|(_, r)| r).collect()
    }

    /// Parallel map: `items.iter().map(f).collect()`, chunked across
    /// the pool. Output order always matches input order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let chunk = chunk_size(items.len());
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let parts = self.run_chunks(chunks.len(), |c| {
            chunks[c].iter().map(&f).collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(items.len());
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Parallel indexed map over `0..len`: like
    /// `(0..len).map(f).collect()`. Output index `i` always holds
    /// `f(i)`.
    pub fn map_index<R, F>(&self, len: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let chunk = chunk_size(len);
        let n_chunks = len.div_ceil(chunk);
        let parts = self.run_chunks(n_chunks, |c| {
            let lo = c * chunk;
            let hi = (lo + chunk).min(len);
            (lo..hi).map(&f).collect::<Vec<R>>()
        });
        let mut out = Vec::with_capacity(len);
        for part in parts {
            out.extend(part);
        }
        out
    }

    /// Parallel fold with a **fixed merge order**: each chunk is folded
    /// left-to-right with `fold` starting from `init()`, and the
    /// per-chunk accumulators are merged left-to-right in chunk-index
    /// order with `merge`. Because chunk boundaries come from
    /// [`chunk_size`] (input length only), the full operation tree —
    /// and therefore the result bits, even for floating-point sums —
    /// is identical at any thread count.
    pub fn fold_chunks<T, A, I, F, M>(&self, items: &[T], init: I, fold: F, merge: M) -> A
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(A, &T) -> A + Sync,
        M: Fn(A, A) -> A,
    {
        let chunk = chunk_size(items.len());
        let chunks: Vec<&[T]> = items.chunks(chunk).collect();
        let parts = self.run_chunks(chunks.len(), |c| chunks[c].iter().fold(init(), &fold));
        let mut acc = init();
        for part in parts {
            acc = merge(acc, part);
        }
        acc
    }
}

impl Default for Pool {
    /// Same as [`Pool::global`].
    fn default() -> Self {
        Self::global()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_width() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 7, 16] {
            let got = Pool::new(threads).map(&items, |&x| x * 3 + 1);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn map_index_matches_sequential() {
        for len in [0usize, 1, 5, 63, 64, 65, 1000] {
            let expect: Vec<usize> = (0..len).map(|i| i * i).collect();
            for threads in [1, 2, 4] {
                assert_eq!(
                    Pool::new(threads).map_index(len, |i| i * i),
                    expect,
                    "len={len} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn float_fold_is_bit_identical_across_widths() {
        // Sums engineered to be order-sensitive: magnitudes spanning
        // ~16 decimal orders make IEEE 754 addition non-associative.
        let items: Vec<f64> = (0..4097)
            .map(|i| (f64::from(i) * 1.000_000_1).powi(3) * if i % 2 == 0 { 1.0 } else { -1e-12 })
            .collect();
        let reference =
            Pool::sequential().fold_chunks(&items, || 0.0f64, |acc, &x| acc + x, |a, b| a + b);
        for threads in [2, 3, 4, 8, 32] {
            let got =
                Pool::new(threads).fold_chunks(&items, || 0.0f64, |acc, &x| acc + x, |a, b| a + b);
            assert_eq!(
                got.to_bits(),
                reference.to_bits(),
                "threads={threads}: {got:e} vs {reference:e}"
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let empty: [u32; 0] = [];
        assert!(Pool::new(4).map(&empty, |&x| x).is_empty());
        assert!(Pool::new(4).map_index(0, |i| i).is_empty());
        let sum = Pool::new(4).fold_chunks(&empty, || 7u32, |a, &x| a + x, |a, b| a + b);
        assert_eq!(sum, 7, "merge starts from one extra init()");
    }

    #[test]
    fn chunk_size_ignores_thread_count() {
        assert_eq!(chunk_size(0), 1);
        assert_eq!(chunk_size(63), 1);
        assert_eq!(chunk_size(64), 1);
        assert_eq!(chunk_size(128), 2);
        assert_eq!(chunk_size(6400), 100);
    }

    #[test]
    fn global_override_round_trips() {
        let before = global_threads();
        set_global_threads(3);
        assert_eq!(global_threads(), 3);
        assert_eq!(Pool::global().threads(), 3);
        set_global_threads(0);
        assert!(global_threads() >= 1);
        set_global_threads(before);
    }

    /// Single test owning the process-global timeline recorder inside
    /// this test binary (the other tests never enable it): a 2-thread
    /// run must produce at least two worker lanes, per-chunk records
    /// labelled from the enclosing span path, and — recorder on or off —
    /// bit-identical results.
    #[test]
    fn timeline_records_worker_lanes_without_changing_results() {
        let items: Vec<u64> = (0..4096).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(31)).collect();
        prvm_obs::timeline::enable();
        let got = {
            let _span = prvm_obs::Span::enter("par_timeline_test");
            Pool::new(2).map(&items, |&x| x.wrapping_mul(31))
        };
        let timeline = prvm_obs::timeline::disable();
        assert_eq!(got, expect, "profiling must not change results");
        assert!(
            timeline.worker_lanes().len() >= 2,
            "2-thread run produced lanes {:?}",
            timeline.lanes
        );
        let chunk_records: Vec<_> = timeline
            .records
            .iter()
            .filter(|r| r.label == "par_timeline_test/chunk")
            .collect();
        // 4096 items -> chunk_size 64 -> 64 chunks, each recorded once.
        assert_eq!(chunk_records.len(), 64);
        assert!(chunk_records.iter().all(|r| r.lane >= 1));
        let mut chunks: Vec<u64> = chunk_records.iter().filter_map(|r| r.chunk).collect();
        chunks.sort_unstable();
        assert_eq!(chunks, (0..64).collect::<Vec<u64>>());
        // Every spawned worker also records its lifetime on its lane.
        let worker_records = timeline
            .records
            .iter()
            .filter(|r| r.label == "par_timeline_test/worker")
            .count();
        assert_eq!(worker_records, 2);
    }

    #[test]
    fn worker_panic_propagates() {
        let result = std::panic::catch_unwind(|| {
            Pool::new(2).map_index(500, |i| {
                assert!(i != 250, "boom");
                i
            })
        });
        assert!(result.is_err());
    }
}
