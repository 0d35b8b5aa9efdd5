//! A fixed-size worker thread pool.
//!
//! The server's concurrency substrate: `N` long-lived workers pull
//! closures off one `mpsc` channel (receiver shared behind a mutex —
//! the textbook std-only pool). Dropping the pool closes the channel,
//! lets every worker drain and exit, and joins them, so shutdown is
//! deterministic: no job is abandoned half-written to a socket.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Queue slots per worker: enough to absorb bursts, small enough that
/// a stalled pool rejects new work (see [`ThreadPool::try_execute`])
/// instead of buffering connections without bound.
const QUEUE_PER_WORKER: usize = 64;

/// Returned by [`ThreadPool::try_execute`] when every queue slot is
/// occupied — the caller should shed the work (e.g. answer `503`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull;

/// Fixed pool of worker threads executing submitted jobs FIFO, with a
/// bounded queue for backpressure.
#[derive(Debug)]
pub struct ThreadPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Spawns a pool of `size` workers (`size` is clamped to ≥ 1).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = sync_channel::<Job>(size * QUEUE_PER_WORKER);
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|index| {
                let receiver: Arc<Mutex<Receiver<Job>>> = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{index}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = receiver.lock().expect("pool receiver lock poisoned");
                            guard.recv()
                        };
                        match job {
                            // A panicking job must not shrink the pool:
                            // contain it and keep serving.
                            Ok(job) => {
                                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            }
                            Err(_) => break, // channel closed: pool is shutting down
                        }
                    })
                    .expect("spawning a pool worker failed")
            })
            .collect();
        Self {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when every slot is taken (every worker busy
    /// and the burst buffer exhausted) — the load-shedding signal.
    pub fn try_execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), QueueFull> {
        self.sender
            .as_ref()
            .expect("pool sender lives until drop")
            .try_send(Box::new(job))
            .map_err(|e| match e {
                TrySendError::Full(_) => QueueFull,
                TrySendError::Disconnected(_) => {
                    unreachable!("pool workers outlive the sender")
                }
            })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            // A worker that panicked already tore down its job; there is
            // nothing useful to do with the panic payload here.
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_across_workers() {
        let pool = ThreadPool::new(4);
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.try_execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            })
            .unwrap();
        }
        drop(pool); // joins: every job observed
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.try_execute(move || {
            d.store(7, Ordering::SeqCst);
        })
        .unwrap();
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn a_full_queue_sheds_instead_of_buffering() {
        let pool = ThreadPool::new(1);
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = Arc::new(Mutex::new(gate));
        // One job occupies the worker; QUEUE_PER_WORKER more fill the
        // queue; the next try_execute must report QueueFull.
        let mut accepted = 0usize;
        let mut shed = 0usize;
        for _ in 0..(QUEUE_PER_WORKER + 10) {
            let gate = Arc::clone(&gate);
            match pool.try_execute(move || {
                let _ = gate.lock().expect("gate lock").recv();
            }) {
                Ok(()) => accepted += 1,
                Err(QueueFull) => shed += 1,
            }
        }
        assert!(shed > 0, "queue never filled");
        assert!(accepted >= QUEUE_PER_WORKER, "queue smaller than promised");
        // Release every parked job and drain.
        for _ in 0..accepted {
            release.send(()).expect("workers alive");
        }
        drop(release);
        drop(pool);
    }

    #[test]
    fn a_panicking_job_does_not_kill_the_pool_owner() {
        let pool = ThreadPool::new(2);
        pool.try_execute(|| panic!("job panic")).unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.try_execute(move || {
            d.store(1, Ordering::SeqCst);
        })
        .unwrap();
        drop(pool);
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
