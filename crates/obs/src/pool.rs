//! One-queue worker pool: the shared execution substrate of the
//! experiment service.
//!
//! The experiment engine's cell grids, `lab serve`'s request stream and
//! the campaign's case batches share one shape: independent,
//! index-identified jobs whose *results must be observed in submission
//! order* although workers finish them in any order. [`service_scope`]
//! runs that shape once:
//!
//! * jobs join one FIFO queue and each idle worker takes the oldest, so
//!   jobs start in submission order and a slow job (an `mcf` cell amid
//!   cheap ones) holds only its own worker;
//! * a feeder thread pushes jobs while the workers sleep between
//!   arrivals (e.g. spec cells read from stdin);
//! * results are parked and emitted strictly in submission-index order
//!   as soon as each next one exists, so downstream streams (JSONL
//!   rows, report sections) are byte-identical for any worker count
//!   yet incremental;
//! * each worker owns a state built by `init` (a leased simulator, a
//!   scratch arena), returned to the caller for accounting.
//!
//! One mutex guards the queue, the parked results and the count of live
//! workers; workers wait on a "work queued" condvar, the emitter on a
//! "result parked" one.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Everything the pool's threads share, guarded by [`Shared::state`].
struct State<T, R> {
    /// Submitted jobs not yet taken, oldest first.
    queue: VecDeque<(usize, T)>,
    /// Still accepting submissions.
    open: bool,
    /// Finished results waiting for their turn in submission order.
    parked: BTreeMap<usize, R>,
    /// Workers that have not yet exited.
    live: usize,
}

struct Shared<T, R> {
    state: Mutex<State<T, R>>,
    work_queued: Condvar,
    result_parked: Condvar,
}

impl<T, R> Shared<T, R> {
    /// Locks the state. Every update under the lock is a single queue,
    /// map or counter operation, so a panic elsewhere never leaves it
    /// half-written and a poisoned lock is safe to reuse.
    fn lock(&self) -> MutexGuard<'_, State<T, R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes the oldest queued job, sleeping until one arrives; `None`
    /// once the stream is closed and drained.
    fn next_job(&self) -> Option<(usize, T)> {
        let mut state = self.lock();
        loop {
            if let Some(job) = state.queue.pop_front() {
                return Some(job);
            }
            if !state.open {
                return None;
            }
            state = self.work_queued.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Counts a worker out when its thread ends, by returning or by
/// unwinding, so the emitter never waits on a worker that is gone.
struct LiveWorker<'p, T, R>(&'p Shared<T, R>);

impl<T, R> Drop for LiveWorker<'_, T, R> {
    fn drop(&mut self) {
        self.0.lock().live -= 1;
        self.0.result_parked.notify_one();
    }
}

/// Submission handle passed to the feeder closure of [`service_scope`];
/// dropping it when the feeder returns (or unwinds) closes the stream.
pub struct Submitter<'p, T, R> {
    shared: &'p Shared<T, R>,
    next_index: Cell<usize>,
}

impl<T, R> Submitter<'_, T, R> {
    /// Queues one job and returns its submission index (the order
    /// `emit` will observe).
    pub fn push(&self, item: T) -> usize {
        let index = self.next_index.replace(self.next_index.get() + 1);
        self.shared.lock().queue.push_back((index, item));
        self.shared.work_queued.notify_one();
        index
    }
}

impl<T, R> Drop for Submitter<'_, T, R> {
    fn drop(&mut self) {
        self.shared.lock().open = false;
        self.shared.work_queued.notify_all();
    }
}

/// Runs a resident worker pool inside a thread scope.
///
/// * `jobs` — worker count (clamped to at least 1);
/// * `init(worker)` — builds each worker's private state on its own
///   thread;
/// * `work(state, index, job)` — executes one job;
/// * `feed(submitter)` — runs on a dedicated thread; pushes jobs (from
///   a vector, a socket, stdin, …) and may block. The stream closes
///   when it returns;
/// * `emit(index, result)` — runs on the calling thread, invoked in
///   strict submission-index order as soon as each next result exists.
///
/// Returns the worker states in worker order. Determinism contract: for
/// a fixed job stream, everything observable through `emit` is
/// independent of `jobs`; only the worker-state contents may differ. A
/// panic in any closure propagates to the caller once the remaining
/// workers have drained the queue.
pub fn service_scope<T: Send, S: Send, R: Send>(
    jobs: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, T) -> R + Sync,
    feed: impl FnOnce(&Submitter<'_, T, R>) + Send,
    mut emit: impl FnMut(usize, R),
) -> Vec<S> {
    let jobs = jobs.max(1);
    let state = State { queue: VecDeque::new(), open: true, parked: BTreeMap::new(), live: jobs };
    let (work_queued, result_parked) = (Condvar::new(), Condvar::new());
    let shared = Shared { state: Mutex::new(state), work_queued, result_parked };

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|me| {
                let (shared, init, work) = (&shared, &init, &work);
                scope.spawn(move || {
                    let _live = LiveWorker(shared);
                    let mut state = init(me);
                    while let Some((index, job)) = shared.next_job() {
                        let result = work(&mut state, index, job);
                        shared.lock().parked.insert(index, result);
                        shared.result_parked.notify_one();
                    }
                    state
                })
            })
            .collect();

        // The feeder gets its own thread so a blocking source (stdin)
        // cannot stall ordered emission below.
        scope.spawn(|| feed(&Submitter { shared: &shared, next_index: Cell::new(0) }));

        // Ordered emission on the calling thread.
        let mut next_emit = 0usize;
        let mut state = shared.lock();
        loop {
            if let Some(result) = state.parked.remove(&next_emit) {
                drop(state);
                emit(next_emit, result);
                next_emit += 1;
                state = shared.lock();
            } else if state.live == 0 {
                // Every worker has exited, so no result is still to
                // come; a gap left by a panicked job re-raises its
                // panic at the join below.
                break;
            } else {
                state = shared.result_parked.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        }
        drop(state);

        workers
            .into_iter()
            .map(|worker| worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Batch front-end over [`service_scope`]: runs `items` through the
/// pool and returns their results in submission order, plus the worker
/// states.
pub fn run_indexed<T: Send, S: Send, R: Send>(
    jobs: usize,
    items: Vec<T>,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, T) -> R + Sync,
) -> (Vec<R>, Vec<S>) {
    let n = items.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let states = service_scope(
        jobs.clamp(1, n.max(1)),
        init,
        work,
        |submitter| {
            for item in items {
                submitter.push(item);
            }
        },
        |index, result| results[index] = Some(result),
    );
    let results =
        results.into_iter().map(|slot| slot.expect("every submitted job emitted")).collect();
    (results, states)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn batch_results_are_submission_ordered_for_any_worker_count() {
        for jobs in [1, 2, 7] {
            let (results, states) = run_indexed(
                jobs,
                (0..40u64).collect(),
                |_| 0u64,
                |count, index, item| {
                    *count += 1;
                    assert_eq!(index as u64, item);
                    item * 3
                },
            );
            assert_eq!(results, (0..40u64).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(states.len(), jobs.min(40));
            assert_eq!(states.iter().sum::<u64>(), 40, "every job counted exactly once");
        }
    }

    #[test]
    fn repeated_batches_never_uncount_a_job_before_it_is_counted() {
        // Many short batches race the workers against the feeder and
        // the close; every job must still run exactly once and every
        // batch must end.
        for _ in 0..3000 {
            let (results, states) = run_indexed(
                2,
                (0..40u64).collect(),
                |_| 0u64,
                |count, _, i| {
                    *count += 1;
                    i
                },
            );
            assert_eq!(results.len(), 40);
            assert_eq!(states.iter().sum::<u64>(), 40);
        }
    }

    #[test]
    fn emission_order_is_strict_even_when_late_jobs_finish_first() {
        // Job 0 is made slow; all emissions must still start at 0.
        let emitted = Mutex::new(Vec::new());
        let states = service_scope(
            4,
            |_| 0usize,
            |count, index, ()| {
                *count += 1;
                if index == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                index
            },
            |submitter| {
                for _ in 0..16 {
                    submitter.push(());
                }
            },
            |index, result| {
                assert_eq!(index, result);
                emitted.lock().unwrap().push(index);
            },
        );
        assert_eq!(*emitted.lock().unwrap(), (0..16).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 16);
    }

    #[test]
    fn resident_feeder_can_trickle_jobs_in() {
        // Jobs arrive with pauses, as on a stdin-fed service; workers
        // must sleep and wake rather than exit early.
        let mut seen = Vec::new();
        let states = service_scope(
            2,
            |_| 0usize,
            |count, _, item: u32| {
                *count += 1;
                item + 1
            },
            |submitter| {
                for batch in 0..3 {
                    for i in 0..4 {
                        submitter.push(batch * 4 + i);
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            },
            |_, result| seen.push(result),
        );
        assert_eq!(seen, (1..=12).collect::<Vec<_>>());
        assert_eq!(states.iter().sum::<usize>(), 12);
    }

    #[test]
    fn a_slow_job_does_not_strand_the_queue() {
        // Job 0 holds its worker until the other 63 jobs are done (or a
        // generous timeout passes), so the other worker must run them.
        let done = (Mutex::new(0usize), Condvar::new());
        let (_, mut counts) = run_indexed(
            2,
            (0..64usize).collect(),
            |_| 0usize,
            |count, _, item| {
                *count += 1;
                let (finished, cv) = &done;
                if item == 0 {
                    let guard = finished.lock().unwrap();
                    let _ = cv.wait_timeout_while(guard, Duration::from_secs(10), |n| *n < 63);
                } else {
                    *finished.lock().unwrap() += 1;
                    cv.notify_all();
                }
            },
        );
        counts.sort_unstable();
        assert_eq!(counts, [1, 63], "the worker not holding job 0 ran all the others");
    }

    #[test]
    fn each_worker_takes_jobs_in_submission_order() {
        // Queue all 64 jobs before either worker takes one, then hold
        // job 1 so the two workers' loads are uneven.
        let all_queued = Barrier::new(3);
        let taken = service_scope(
            2,
            |_| {
                all_queued.wait();
                Vec::new()
            },
            |taken: &mut Vec<usize>, index, ()| {
                if index == 1 {
                    std::thread::sleep(Duration::from_millis(40));
                }
                taken.push(index);
            },
            |submitter| {
                for _ in 0..64 {
                    submitter.push(());
                }
                all_queued.wait();
            },
            |_, ()| {},
        );
        assert_eq!(taken.iter().map(Vec::len).sum::<usize>(), 64);
        for indices in &taken {
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "out of order: {indices:?}");
        }
    }

    #[test]
    fn an_empty_stream_ends() {
        let mut emitted = 0;
        let states = service_scope(3, |me| me, |_, _, (): ()| (), |_| {}, |_, ()| emitted += 1);
        assert_eq!(states, [0, 1, 2]);
        assert_eq!(emitted, 0);
        let (results, states) = run_indexed(4, Vec::<u8>::new(), |_| (), |_, _, item| item);
        assert!(results.is_empty());
        assert_eq!(states.len(), 1);
    }

    #[test]
    #[should_panic(expected = "job 5 failed")]
    fn a_panicking_job_reaches_the_caller() {
        run_indexed(
            2,
            (0..16usize).collect(),
            |_| (),
            |_, _, item| {
                assert!(item != 5, "job 5 failed");
                item
            },
        );
    }
}
