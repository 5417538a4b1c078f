//! Deterministic parallel execution primitives for the VeriBug pipeline.
//!
//! Every fan-out in the workspace (mutation campaigns, dataset building,
//! minibatch training, evaluation, experiment sweeps) goes through this
//! crate. The contract is **thread-count invariance**: results are collected
//! into pre-allocated slots indexed by task id, so the output of [`par_map`]
//! is always in input order, byte-for-byte identical whether it ran on one
//! thread or sixteen. Callers that need floating-point reproducibility
//! additionally partition their work into *fixed-size* chunks (see
//! [`par_chunk_map`]) so reduction trees never depend on the worker count.
//!
//! Thread count resolution, highest priority first:
//! 1. a [`with_threads`] override on the calling thread (used by tests),
//! 2. the `VERIBUG_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Built on `std::thread::scope` only — no external dependencies, which
//! keeps the workspace buildable in offline environments.

#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Restores the previous thread-count override even if the closure panics.
struct OverrideGuard {
    prev: Option<usize>,
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Runs `f` with the worker-thread budget pinned to `n` on this thread.
///
/// The override nests (the innermost wins) and is restored on unwind.
/// Results must not change with `n` — this exists so determinism tests can
/// compare runs at different thread counts, and so callers can serialise
/// sections without mutating process-global environment variables.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _guard = OverrideGuard { prev };
    f()
}

/// The number of worker threads fan-outs on this thread will use.
pub fn max_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(|o| o.get()) {
        return n;
    }
    std::env::var("VERIBUG_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `f(0..n)` across the available worker threads and returns the
/// results ordered by task index.
///
/// Tasks are pulled from a shared atomic cursor (work-stealing by index),
/// but each result lands in its own pre-allocated slot, so the returned
/// `Vec` is in task order regardless of scheduling. With one worker (or a
/// single task) no threads are spawned at all. A panicking task propagates
/// once all workers have stopped.
pub fn par_run<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = max_threads().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    // Per-slot `Mutex<Option<R>>` rather than `OnceLock<R>` so only
    // `R: Send` is required; each lock is taken exactly once, uncontended.
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    // Spans and metrics recorded inside workers nest under the span that
    // launched the fan-out, and worker shards are flushed before the scope
    // observes the task as finished (TLS destructors run too late for a
    // snapshot taken right after this returns).
    let ctx = obs::current_context();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                obs::with_context(ctx, || loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    let prev = slots[i].lock().expect("slot lock poisoned").replace(value);
                    assert!(prev.is_none(), "task {i} ran twice");
                });
                obs::flush_thread();
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// Maps `f` over `items` in parallel, preserving input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_run(items.len(), |i| f(&items[i]))
}

/// Maps `f` over fixed-size chunks of `items` in parallel, preserving chunk
/// order; `f` receives the chunk index and the chunk slice.
///
/// The chunk boundaries depend only on `chunk_size` and `items.len()` —
/// never on the worker count — so per-chunk reductions merged in chunk
/// order are bit-identical at any thread count. The final chunk may be
/// shorter. `chunk_size` must be non-zero.
pub fn par_chunk_map<T, R, F>(items: &[T], chunk_size: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    assert!(chunk_size > 0, "chunk_size must be non-zero");
    let chunks = items.len().div_ceil(chunk_size);
    par_run(chunks, |i| {
        let start = i * chunk_size;
        let end = (start + chunk_size).min(items.len());
        f(i, &items[start..end])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8] {
            let got = with_threads(threads, || par_map(&items, |x| x * x));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_run_handles_empty_and_single() {
        assert_eq!(par_run(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_run(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn chunk_boundaries_ignore_thread_count() {
        let items: Vec<usize> = (0..23).collect();
        let serial = with_threads(1, || par_chunk_map(&items, 8, |i, c| (i, c.to_vec())));
        let parallel = with_threads(8, || par_chunk_map(&items, 8, |i, c| (i, c.to_vec())));
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), 3);
        assert_eq!(serial[2].1.len(), 7);
    }

    #[test]
    fn with_threads_nests_and_restores() {
        with_threads(4, || {
            assert_eq!(max_threads(), 4);
            with_threads(2, || assert_eq!(max_threads(), 2));
            assert_eq!(max_threads(), 4);
        });
    }

    #[test]
    fn with_threads_restores_on_panic() {
        with_threads(3, || {
            let caught = std::panic::catch_unwind(|| {
                with_threads(7, || panic!("boom"));
            });
            assert!(caught.is_err());
            assert_eq!(max_threads(), 3);
        });
    }

    #[test]
    fn worker_panics_propagate() {
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                par_run(64, |i| {
                    if i == 13 {
                        panic!("task 13 failed");
                    }
                    i
                })
            });
        });
        assert!(caught.is_err());
    }
}
