//! A work-stealing thread pool over `std` primitives.
//!
//! The pool has one worker loop. A batch of tasks is dealt round-robin
//! onto per-worker deques up front; each worker drains its own deque
//! from the front, and an idle worker steals from the back of its
//! peers. A task runs to completion on the worker that took it, and no
//! task can appear after the deal, so a worker whose scan of every
//! deque comes up empty simply retires: there is nothing to wait for.
//! At most one task per worker is ever in flight.
//!
//! Results are returned in task-submission order no matter which worker
//! ran what — the determinism half of the runner's contract. Panics are
//! caught per task ([`std::thread::Result`] slots), the fault-isolation
//! half.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use when the caller does not say: the machine's
/// available parallelism (1 if that cannot be determined).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Renders a panic payload (as captured by `catch_unwind`) as text.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A worker's deque: each entry is a task's submission index and the
/// task.
type Queue<F> = Mutex<VecDeque<(usize, F)>>;

/// A fixed-width work-stealing pool.
///
/// `Pool` holds no threads between runs — workers are scoped to each
/// batch, so a pool is cheap to create and freely shared.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// Creates a pool that runs batches on `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a pool needs at least one worker");
        Self { threads }
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every task, returning results in task order.
    ///
    /// A panicking task yields `Err(payload)` in its slot and does not
    /// affect its neighbours or its worker.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        self.run_reporting(tasks, |_, _| {})
    }

    /// [`Pool::run`] with `progress(done, total)` fired after each task
    /// finishes, from the finishing worker's thread.
    ///
    /// # Panics
    /// Re-raises a panic of `progress` itself once the workers have
    /// stopped.
    pub(crate) fn run_reporting<T, F, P>(
        &self,
        tasks: Vec<F>,
        progress: P,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send,
        P: Fn(usize, usize) + Sync,
    {
        let total = tasks.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(total);
        // Deal tasks round-robin so neighbouring (often similarly
        // sized) jobs spread across workers from the start.
        let mut dealt: Vec<VecDeque<_>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (idx, task) in tasks.into_iter().enumerate() {
            dealt[idx % workers].push_back((idx, task));
        }
        let queues: Vec<Queue<F>> = dealt.into_iter().map(Mutex::new).collect();
        // Only a progress count: results travel back through `join`, so
        // `done` publishes no data and `Relaxed` suffices.
        let done = AtomicUsize::new(0);

        // Each worker keeps the results of the tasks it finished; they
        // are scattered into submission order once the workers join.
        let mut results: Vec<Option<std::thread::Result<T>>> = (0..total).map(|_| None).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let (queues, done, progress) = (&queues, &done, &progress);
                    scope.spawn(move || {
                        let mut finished = Vec::new();
                        while let Some((idx, task)) = pop_or_steal(queues, w) {
                            finished.push((idx, catch_unwind(AssertUnwindSafe(task))));
                            progress(done.fetch_add(1, Ordering::Relaxed) + 1, total);
                        }
                        finished
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(finished) => {
                        for (idx, result) in finished {
                            results[idx] = Some(result);
                        }
                    }
                    // Tasks run under `catch_unwind`, so a worker can
                    // only die in `progress`.
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            // Every task was popped by exactly one worker, which recorded
            // its result before scanning again.
            .map(|slot| slot.expect("every task finished before its worker retired"))
            .collect()
    }
}

/// Locks a worker's deque.
fn lock<F>(queue: &Queue<F>) -> std::sync::MutexGuard<'_, VecDeque<(usize, F)>> {
    // Only `pop_*` runs under this lock and it cannot panic, so the
    // mutex is never poisoned.
    queue.lock().expect("queue poisoned")
}

/// Pops from the worker's own deque front, or steals from the back of
/// the first non-empty peer. `None` means every deque is empty, for
/// good: the batch was dealt up front.
fn pop_or_steal<F>(queues: &[Queue<F>], own: usize) -> Option<(usize, F)> {
    if let Some(entry) = lock(&queues[own]).pop_front() {
        return Some(entry);
    }
    let n = queues.len();
    (1..n).find_map(|offset| lock(&queues[(own + offset) % n]).pop_back())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_task_order() {
        let pool = Pool::new(4);
        let tasks: Vec<_> = (0..64).map(|i| move || i * i).collect();
        let out = pool.run(tasks);
        for (i, r) in out.into_iter().enumerate() {
            assert_eq!(r.unwrap(), i * i);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let pool = Pool::new(3);
        let tasks: Vec<_> = (0..100)
            .map(|_| {
                let counter = &counter;
                move || counter.fetch_add(1, Ordering::Relaxed)
            })
            .collect();
        let out = pool.run(tasks);
        assert_eq!(out.len(), 100);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads| {
            let tasks: Vec<_> = (0..33u64)
                .map(|i| move || i.wrapping_mul(0x9E37_79B9).rotate_left(13))
                .collect();
            Pool::new(threads)
                .run(tasks)
                .into_iter()
                .map(|r| r.unwrap())
                .collect::<Vec<_>>()
        };
        let one = run(1);
        for threads in [2, 3, 8, 16] {
            assert_eq!(run(threads), one, "{threads} threads diverged");
        }
    }

    #[test]
    fn panic_is_captured_per_slot() {
        let pool = Pool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job exploded")),
            Box::new(|| 3),
        ];
        let out = pool.run(tasks);
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "job exploded");
        assert_eq!(*out[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        let pool = Pool::new(16);
        let out = pool.run(vec![|| 7]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].as_ref().copied().unwrap(), 7);
    }

    #[test]
    fn empty_batch_returns_empty() {
        let pool = Pool::new(4);
        let out: Vec<std::thread::Result<()>> = pool.run(Vec::<fn()>::new());
        assert!(out.is_empty());
    }

    #[test]
    fn imbalanced_batch_completes() {
        // One long task at the front plus many short ones: the stealing
        // path must drain everything.
        let pool = Pool::new(4);
        let mut tasks: Vec<Box<dyn FnOnce() -> u64 + Send>> = vec![Box::new(|| {
            let mut acc = 0u64;
            for i in 0..2_000_000u64 {
                acc = acc.wrapping_add(i).rotate_left(1);
            }
            std::hint::black_box(acc)
        })];
        for i in 0..40u64 {
            tasks.push(Box::new(move || i));
        }
        let out = pool.run(tasks);
        assert_eq!(out.len(), 41);
        for (i, r) in out.into_iter().enumerate().skip(1) {
            assert_eq!(r.unwrap(), i as u64 - 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let _ = Pool::new(0);
    }
}
