//! A bounded worker pool with backpressure and drain-on-shutdown.
//!
//! Jobs queue in a bounded `VecDeque` behind a mutex + condvar. When the
//! queue is full, [`Pool::submit`] refuses immediately — the accept loop
//! turns that into a `429` instead of letting latency grow without bound.
//! Workers run each job under `catch_unwind`, so a panicking request can
//! never kill a worker thread. [`Pool::shutdown`] closes the queue, lets
//! the workers finish everything already queued or running, and joins
//! them — the drain the graceful-shutdown path relies on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

static POOL_PANICS: obs::LazyCounter = obs::LazyCounter::new("serve.pool.panics");

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why a job was not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity; try again later (HTTP `429`).
    Full,
    /// The pool is shutting down and accepts no new work (HTTP `503`).
    Closed,
}

struct Queue {
    jobs: VecDeque<Job>,
    open: bool,
    running: usize,
}

struct Inner {
    queue: Mutex<Queue>,
    cond: Condvar,
    capacity: usize,
}

/// A fixed-size worker pool over a bounded job queue.
pub struct Pool {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Pool {
    /// Spawns `workers` threads (min 1) serving a queue of `queue_capacity`
    /// pending jobs (min 1, not counting jobs already running).
    pub fn new(workers: usize, queue_capacity: usize) -> Pool {
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
                running: 0,
            }),
            cond: Condvar::new(),
            capacity: queue_capacity.max(1),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("veribug-serve-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueues a job, refusing when the queue is full or closed.
    ///
    /// # Errors
    ///
    /// [`SubmitError::Full`] at capacity, [`SubmitError::Closed`] after
    /// [`shutdown`](Pool::shutdown) started.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        {
            let mut q = self.inner.queue.lock().expect("pool queue lock");
            if !q.open {
                return Err(SubmitError::Closed);
            }
            if q.jobs.len() >= self.inner.capacity {
                return Err(SubmitError::Full);
            }
            q.jobs.push_back(Box::new(job));
        }
        self.inner.cond.notify_one();
        Ok(())
    }

    /// `(queued, running)` occupancy right now.
    pub fn depth(&self) -> (usize, usize) {
        let q = self.inner.queue.lock().expect("pool queue lock");
        (q.jobs.len(), q.running)
    }

    /// True when a [`submit`](Pool::submit) right now would return
    /// [`SubmitError::Full`].
    pub fn is_full(&self) -> bool {
        let q = self.inner.queue.lock().expect("pool queue lock");
        q.jobs.len() >= self.inner.capacity
    }

    /// The queue capacity the pool was built with.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Closes the queue, waits for every queued and in-flight job to
    /// finish, and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue lock");
            q.open = false;
        }
        self.inner.cond.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("pool workers lock"));
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("pool queue lock");
            loop {
                if let Some(j) = q.jobs.pop_front() {
                    q.running += 1;
                    break j;
                }
                if !q.open {
                    return;
                }
                q = inner.cond.wait(q).expect("pool queue wait");
            }
        };
        // The job does its own error handling; this is the backstop that
        // keeps the worker alive when even that handling panics.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            POOL_PANICS.incr();
        }
        inner.queue.lock().expect("pool queue lock").running -= 1;
    }
}

/// One place in a capped count of work in flight (`429` threads, a shard
/// front's forwards per backend and its local fallbacks), given back on
/// drop: after a panic, or with the closure of a thread that never started.
pub(crate) struct Slot(Arc<AtomicUsize>);

impl Slot {
    /// A place in `count`, if fewer than `cap` are taken.
    pub(crate) fn take(count: &Arc<AtomicUsize>, cap: usize) -> Option<Slot> {
        if count.fetch_add(1, Ordering::SeqCst) >= cap {
            count.fetch_sub(1, Ordering::SeqCst);
            return None;
        }
        Some(Slot(Arc::clone(count)))
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn a_slot_cap_admits_at_most_its_size_and_frees_on_drop() {
        let count = Arc::default();
        let first = Slot::take(&count, 2).expect("room for one");
        let second = Slot::take(&count, 2).expect("room for two");
        assert!(Slot::take(&count, 2).is_none(), "a full cap refuses");
        drop(first);
        assert!(Slot::take(&count, 2).is_some(), "a freed slot is reusable");
        drop(second);
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn runs_submitted_jobs() {
        let pool = Pool::new(2, 8);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..6 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn full_queue_refuses() {
        let pool = Pool::new(1, 1);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        })
        .unwrap();
        // Wait until the blocker is *running*, then fill the single slot.
        started_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("blocker started");
        pool.submit(|| {}).unwrap();
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Full));
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = Pool::new(1, 16);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(2));
                done.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 10, "every queued job ran");
        assert_eq!(pool.submit(|| {}), Err(SubmitError::Closed));
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let pool = Pool::new(1, 8);
        pool.submit(|| panic!("request blew up")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.submit(move || {
            d.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 1, "worker survived the panic");
    }
}
