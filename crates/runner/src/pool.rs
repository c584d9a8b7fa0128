//! A work-stealing thread pool over `std` primitives.
//!
//! The pool has one worker loop, [`Pool::run_resumable`]. A batch of
//! tasks is dealt round-robin onto per-worker deques up front; each
//! worker drains its own deque from the front, and an idle worker
//! steals from the back of its peers. A task runs as a chain of
//! *steps*: a step either finishes ([`TaskStep::Done`]) or *yields* a
//! continuation ([`TaskStep::Yield`]), which the pool re-enqueues at
//! the back of the finishing worker's deque — where an idle peer's
//! steal picks it up first, so a straggler task migrates across workers
//! slice by slice instead of pinning one. Because yielded work can
//! reappear after a worker's scan came up empty, a worker retires only
//! when the batch-wide completion count reaches the total; until then
//! an empty-handed worker spins on [`std::thread::yield_now`].
//!
//! [`Pool::run`] is the same loop over plain closures, each wrapped as
//! a task whose only step is `Done`.
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

/// One step of a resumable task: either the finished value, or the
/// continuation the pool should re-enqueue and run next.
pub enum TaskStep<'a, T> {
    /// The task is finished; its slot gets this value.
    Done(T),
    /// The task yielded mid-flight; the pool re-enqueues this closure
    /// so the next slice can run on whichever worker is free first.
    Yield(ResumableTask<'a, T>),
}

/// A boxed task step for [`Pool::run_resumable`]: runs one slice of
/// work and reports [`TaskStep::Done`] or yields a continuation.
pub type ResumableTask<'a, T> = Box<dyn FnOnce() -> TaskStep<'a, T> + Send + 'a>;

/// A worker's deque: each entry is a task's submission index and its
/// next step.
type Queue<'a, T> = Mutex<VecDeque<(usize, ResumableTask<'a, T>)>>;

/// A fixed-width work-stealing pool.
///
/// `Pool` holds no threads between runs — workers are scoped to each
/// [`Pool::run_resumable`] call, so a pool is cheap to create and
/// freely shared.
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
    pub fn run<'a, T, F>(&self, tasks: Vec<F>) -> Vec<std::thread::Result<T>>
    where
        T: Send,
        F: FnOnce() -> T + Send + 'a,
    {
        let tasks = tasks
            .into_iter()
            .map(|task| -> ResumableTask<'a, T> { Box::new(move || TaskStep::Done(task())) })
            .collect();
        self.run_resumable(tasks, |_, _| {})
    }

    /// Executes a batch of resumable tasks, returning results in task
    /// order. Each task runs as a chain of *steps*: a step that returns
    /// [`TaskStep::Yield`] hands the pool a continuation, which is
    /// re-enqueued at the back of the finishing worker's deque — prime
    /// stealing territory, so a long task's remaining slices migrate to
    /// whichever worker frees up first instead of pinning one.
    /// `progress(done, total)` fires after each task (not each step)
    /// finishes, from the finishing worker's thread.
    ///
    /// A panic in any step fails that task's slot (`Err(payload)`)
    /// without disturbing its neighbours; the task's later slices are
    /// simply never scheduled (the continuation died with the step).
    ///
    /// # Panics
    /// Re-raises a panic of `progress` itself once the workers have
    /// stopped.
    pub fn run_resumable<'a, T, P>(
        &self,
        tasks: Vec<ResumableTask<'a, T>>,
        progress: P,
    ) -> Vec<std::thread::Result<T>>
    where
        T: Send,
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
        let queues: Vec<Queue<'a, T>> = dealt.into_iter().map(Mutex::new).collect();
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
                        loop {
                            let Some((idx, task)) = pop_or_steal(queues, w) else {
                                // An empty scan does not prove the batch
                                // is drained — a continuation yielded by
                                // a peer may reappear. Retire only once
                                // every task has completed; until then
                                // give the running workers the core back
                                // and rescan.
                                if done.load(Ordering::Acquire) >= total {
                                    break;
                                }
                                std::thread::yield_now();
                                continue;
                            };
                            let result = match catch_unwind(AssertUnwindSafe(task)) {
                                Ok(TaskStep::Yield(next)) => {
                                    lock(&queues[w]).push_back((idx, next));
                                    continue;
                                }
                                Ok(TaskStep::Done(value)) => Ok(value),
                                Err(payload) => Err(payload),
                            };
                            finished.push((idx, result));
                            progress(done.fetch_add(1, Ordering::AcqRel) + 1, total);
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
                    // Steps run under `catch_unwind`, so a worker can
                    // only die in `progress`.
                    Err(payload) => resume_unwind(payload),
                }
            }
        });
        results
            .into_iter()
            // Workers retire only at `done == total`, and `done` counts
            // tasks whose result was recorded.
            .map(|slot| slot.expect("every task finished before its worker retired"))
            .collect()
    }
}

/// Locks a worker's deque.
fn lock<'q, 'a, T>(
    queue: &'q Queue<'a, T>,
) -> std::sync::MutexGuard<'q, VecDeque<(usize, ResumableTask<'a, T>)>> {
    // Only `push_back`/`pop_*` run under this lock and neither panics,
    // so the mutex is never poisoned.
    queue.lock().expect("queue poisoned")
}

/// Pops from the worker's own deque front, or steals from the back of
/// the first non-empty peer. `None` means every deque is empty right
/// now.
fn pop_or_steal<'a, T>(
    queues: &[Queue<'a, T>],
    own: usize,
) -> Option<(usize, ResumableTask<'a, T>)> {
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

    /// A resumable task counting down `slices` yields before each one,
    /// recording which worker-visible step it ran on via the shared log.
    fn countdown<'a>(
        id: usize,
        slices: usize,
        log: &'a Mutex<Vec<usize>>,
    ) -> ResumableTask<'a, usize> {
        Box::new(move || {
            log.lock().unwrap().push(id);
            if slices <= 1 {
                TaskStep::Done(id)
            } else {
                TaskStep::Yield(countdown(id, slices - 1, log))
            }
        })
    }

    #[test]
    fn resumable_tasks_finish_in_slot_order_across_yields() {
        for threads in [1, 2, 8] {
            let log = Mutex::new(Vec::new());
            let tasks: Vec<ResumableTask<usize>> =
                (0..12).map(|i| countdown(i, 1 + i % 5, &log)).collect();
            let out = Pool::new(threads).run_resumable(tasks, |_, _| {});
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..12).collect::<Vec<_>>());
            // Every slice ran: task i contributes 1 + i % 5 log entries.
            let expected: usize = (0..12).map(|i| 1 + i % 5).sum();
            assert_eq!(log.lock().unwrap().len(), expected);
        }
    }

    #[test]
    fn panic_in_a_late_slice_is_captured_per_slot() {
        fn exploding<'a>(slices: usize) -> ResumableTask<'a, u32> {
            Box::new(move || {
                if slices == 0 {
                    panic!("slice exploded");
                }
                TaskStep::Yield(exploding(slices - 1))
            })
        }
        let tasks: Vec<ResumableTask<u32>> = vec![
            Box::new(|| TaskStep::Done(1)),
            exploding(3),
            Box::new(|| TaskStep::Done(3)),
        ];
        let out = Pool::new(2).run_resumable(tasks, |_, _| {});
        assert_eq!(*out[0].as_ref().unwrap(), 1);
        let err = out[1].as_ref().unwrap_err();
        assert_eq!(panic_message(err.as_ref()), "slice exploded");
        assert_eq!(*out[2].as_ref().unwrap(), 3);
    }

    #[test]
    fn yielded_continuations_migrate_to_idle_workers() {
        // One sliced straggler plus nothing else: with two workers the
        // straggler's slices are stealable, so every slice must run and
        // at least one steal is possible (we assert completion + count,
        // not which thread ran what — scheduling is free to vary).
        let slices_run = AtomicUsize::new(0);
        fn sliced<'a>(n: usize, ran: &'a AtomicUsize) -> ResumableTask<'a, usize> {
            Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
                if n == 0 {
                    TaskStep::Done(ran.load(Ordering::Relaxed))
                } else {
                    TaskStep::Yield(sliced(n - 1, ran))
                }
            })
        }
        let out = Pool::new(2).run_resumable(vec![sliced(7, &slices_run)], |_, _| {});
        assert_eq!(out.len(), 1);
        assert_eq!(slices_run.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn resumable_progress_counts_tasks_not_slices() {
        let log = Mutex::new(Vec::new());
        let max_seen = AtomicUsize::new(0);
        let calls = AtomicUsize::new(0);
        let tasks: Vec<ResumableTask<usize>> = (0..6).map(|i| countdown(i, 4, &log)).collect();
        Pool::new(3).run_resumable(tasks, |done, total| {
            assert!(done <= total);
            calls.fetch_add(1, Ordering::Relaxed);
            max_seen.fetch_max(done, Ordering::Relaxed);
        });
        assert_eq!(max_seen.load(Ordering::Relaxed), 6);
        assert_eq!(calls.load(Ordering::Relaxed), 6, "one callback per task");
    }

    #[test]
    #[should_panic(expected = "progress exploded")]
    fn a_panicking_progress_callback_is_re_raised_with_its_message() {
        let tasks: Vec<ResumableTask<usize>> = (0..4)
            .map(|i| -> ResumableTask<usize> { Box::new(move || TaskStep::Done(i)) })
            .collect();
        Pool::new(2).run_resumable(tasks, |done, _| {
            if done == 2 {
                panic!("progress exploded");
            }
        });
    }

    #[test]
    fn empty_resumable_batch_returns_empty() {
        let out: Vec<std::thread::Result<()>> = Pool::new(4).run_resumable(Vec::new(), |_, _| {});
        assert!(out.is_empty());
    }
}
