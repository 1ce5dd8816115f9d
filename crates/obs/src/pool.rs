//! Work-stealing shard pool: the shared execution substrate of the
//! experiment service.
//!
//! Every large consumer in this repository — the experiment engine's
//! cell grids, the differential fuzzer's case batches, the campaign's
//! round evaluation — has the same shape: a stream of independent,
//! index-identified jobs whose *results must be observed in submission
//! order* even though workers finish them in any order. This module
//! factors that shape out once:
//!
//! * **sharded queues** — submitted jobs land round-robin on per-worker
//!   deques; each worker pops its own shard from the front and, when
//!   empty, steals from the back of a sibling's shard, so an uneven
//!   grid (one slow `mcf` cell amid cheap ones) cannot idle the pool;
//! * **resident operation** — [`service_scope`] keeps workers alive
//!   while a feeder thread pushes jobs (e.g. spec cells arriving on
//!   stdin); workers sleep on a condvar between arrivals and drain the
//!   queues after [`Submitter::close`];
//! * **ordered emission** — results are re-sequenced and handed to the
//!   caller's `emit` closure strictly in submission-index order, as
//!   soon as each next index completes. Downstream streams (JSONL rows,
//!   report sections) are therefore byte-identical for any worker
//!   count, while still being incremental;
//! * **per-worker state** — each worker owns a state value built by
//!   `init` (a leased simulator pair, a scratch arena) that is returned
//!   to the caller at the end for accounting.
//!
//! Scheduling statistics ([`PoolStats`]: steal count, queue-depth
//! high-water mark) are inherently timing-dependent; reports must keep
//! them in a clearly volatile section (the engine's
//! `engine.scheduling`), never among deterministic rows.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::json::{Json, ToJson};

/// Scheduling counters of one pool run. Everything here may legally
/// vary from run to run (and with the worker count); deterministic
/// consumers must treat the whole struct as volatile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker shards the pool ran with.
    pub shards: usize,
    /// Jobs executed by a worker other than the shard they were
    /// submitted to (work stealing).
    pub stolen: u64,
    /// High-water mark of jobs queued (all shards) and not yet started.
    pub queue_hwm: usize,
    /// Jobs executed in total.
    pub executed: u64,
}

impl ToJson for PoolStats {
    fn to_json(&self) -> Json {
        Json::object()
            .with("shards", self.shards)
            .with("stolen_tasks", self.stolen)
            .with("queue_depth_hwm", self.queue_hwm)
            .with("executed", self.executed)
    }
}

/// Queue bookkeeping guarded by one mutex: pending counts and the
/// open/closed state workers sleep on.
struct Gate {
    /// Jobs submitted and not yet picked up by a worker.
    pending: usize,
    /// Still accepting submissions.
    open: bool,
    /// Total jobs submitted so far (final once `open` is false).
    submitted: usize,
}

struct Shared<T> {
    shards: Vec<Mutex<VecDeque<(usize, T)>>>,
    gate: Mutex<Gate>,
    work_ready: Condvar,
    stolen: AtomicU64,
    executed: AtomicU64,
    depth_hwm: AtomicUsize,
}

/// Submission handle passed to the feeder closure of [`service_scope`].
pub struct Submitter<'p, T> {
    shared: &'p Shared<T>,
    next_index: AtomicUsize,
}

impl<'p, T> Submitter<'p, T> {
    /// Queues one job and returns its submission index (the order
    /// `emit` will observe).
    pub fn push(&self, item: T) -> usize {
        let index = self.next_index.fetch_add(1, Ordering::SeqCst);
        let shard = index % self.shared.shards.len();
        let mut gate = self.shared.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        // Queue under the gate: a worker can take the job as soon as it
        // is queued, but uncounts it under the gate, so only after this
        // push has counted it (otherwise `pending` could underflow).
        self.shared.shards[shard]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push_back((index, item));
        gate.pending += 1;
        gate.submitted += 1;
        let depth = gate.pending;
        drop(gate);
        self.shared.depth_hwm.fetch_max(depth, Ordering::SeqCst);
        self.shared.work_ready.notify_one();
        index
    }

    /// Declares the job stream finished; workers drain what is queued
    /// and exit. Called automatically when the feeder closure returns.
    pub fn close(&self) {
        let mut gate = self.shared.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        gate.open = false;
        drop(gate);
        self.shared.work_ready.notify_all();
    }
}

impl<T> Shared<T> {
    /// Takes the next job for worker `me`: own shard front first, then
    /// steal from siblings' backs, then sleep until work arrives or the
    /// stream closes empty.
    fn take(&self, me: usize) -> Option<(usize, T)> {
        loop {
            if let Some(job) = self.try_take(me) {
                return Some(job);
            }
            let mut gate = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if gate.pending > 0 {
                    break; // retry the deques
                }
                if !gate.open {
                    return None;
                }
                gate = self
                    .work_ready
                    .wait(gate)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
    }

    fn try_take(&self, me: usize) -> Option<(usize, T)> {
        let n = self.shards.len();
        for offset in 0..n {
            let victim = (me + offset) % n;
            let job = {
                let mut deque = self.shards[victim]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                // Owner takes oldest-first; thieves take from the other
                // end to minimize contention on the owner's next job.
                if victim == me { deque.pop_front() } else { deque.pop_back() }
            };
            if let Some(job) = job {
                let mut gate = self.gate.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                gate.pending -= 1;
                drop(gate);
                if victim != me {
                    self.stolen.fetch_add(1, Ordering::SeqCst);
                }
                return Some(job);
            }
        }
        None
    }
}

/// Results parked until their turn in the submission order.
struct Reorder<R> {
    ready: Mutex<BTreeMap<usize, R>>,
    workers_live: AtomicUsize,
    result_ready: Condvar,
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
/// Returns the worker states (in worker order) and the scheduling
/// statistics. Determinism contract: for a fixed job stream, everything
/// observable through `emit` is independent of `jobs`; only
/// [`PoolStats`] and worker-state contents may differ.
pub fn service_scope<T, S, R>(
    jobs: usize,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, T) -> R + Sync,
    feed: impl FnOnce(&Submitter<'_, T>) + Send,
    mut emit: impl FnMut(usize, R),
) -> (Vec<S>, PoolStats)
where
    T: Send,
    S: Send,
    R: Send,
{
    let jobs = jobs.max(1);
    let shared = Shared {
        shards: (0..jobs).map(|_| Mutex::new(VecDeque::new())).collect(),
        gate: Mutex::new(Gate { pending: 0, open: true, submitted: 0 }),
        work_ready: Condvar::new(),
        stolen: AtomicU64::new(0),
        executed: AtomicU64::new(0),
        depth_hwm: AtomicUsize::new(0),
    };
    let reorder = Reorder {
        ready: Mutex::new(BTreeMap::new()),
        workers_live: AtomicUsize::new(jobs),
        result_ready: Condvar::new(),
    };
    let state_slots: Vec<Mutex<Option<S>>> = (0..jobs).map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for me in 0..jobs {
            let shared = &shared;
            let reorder = &reorder;
            let init = &init;
            let work = &work;
            let slot = &state_slots[me];
            scope.spawn(move || {
                let mut state = init(me);
                while let Some((index, job)) = shared.take(me) {
                    let result = work(&mut state, index, job);
                    shared.executed.fetch_add(1, Ordering::SeqCst);
                    reorder
                        .ready
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .insert(index, result);
                    reorder.result_ready.notify_all();
                }
                *slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(state);
                // Decrement under the reorder mutex: the emitter checks
                // `workers_live` while holding it, so an unsynchronized
                // decrement+notify could slip between its check and its
                // wait and be lost.
                {
                    let _guard =
                        reorder.ready.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    reorder.workers_live.fetch_sub(1, Ordering::SeqCst);
                }
                reorder.result_ready.notify_all();
            });
        }

        // The feeder gets its own thread so a blocking source (stdin)
        // cannot stall ordered emission below.
        let feeder = scope.spawn(|| {
            let submitter = Submitter { shared: &shared, next_index: AtomicUsize::new(0) };
            feed(&submitter);
            submitter.close();
        });

        // Ordered emission on the calling thread.
        let mut next_emit = 0usize;
        let mut ready = reorder.ready.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if let Some(result) = ready.remove(&next_emit) {
                drop(ready);
                emit(next_emit, result);
                next_emit += 1;
                ready = reorder.ready.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                continue;
            }
            if reorder.workers_live.load(Ordering::SeqCst) == 0 {
                // All workers exited: the stream is closed, drained,
                // and every result is already in `ready` — the branch
                // above would have found `next_emit` if it existed.
                break;
            }
            ready = reorder
                .result_ready
                .wait(ready)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        drop(ready);
        feeder.join().expect("pool feeder thread");
    });

    let states = state_slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("worker state returned")
        })
        .collect();
    let stats = PoolStats {
        shards: jobs,
        stolen: shared.stolen.load(Ordering::SeqCst),
        queue_hwm: shared.depth_hwm.load(Ordering::SeqCst),
        executed: shared.executed.load(Ordering::SeqCst),
    };
    (states, stats)
}

/// Batch front-end over [`service_scope`]: runs `items` through the
/// pool and returns their results in submission order, plus the worker
/// states and scheduling statistics.
pub fn run_indexed<T, S, R>(
    jobs: usize,
    items: Vec<T>,
    init: impl Fn(usize) -> S + Sync,
    work: impl Fn(&mut S, usize, T) -> R + Sync,
) -> (Vec<R>, Vec<S>, PoolStats)
where
    T: Send,
    S: Send,
    R: Send,
{
    let n = items.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let (states, stats) = service_scope(
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
    let results = results
        .into_iter()
        .map(|slot| slot.expect("every submitted job emitted"))
        .collect();
    (results, states, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn batch_results_are_submission_ordered_for_any_worker_count() {
        for jobs in [1, 2, 7] {
            let (results, states, stats) = run_indexed(
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
            assert_eq!(stats.executed, 40);
            assert_eq!(stats.shards, jobs.min(40));
            assert_eq!(states.iter().sum::<u64>(), 40, "every job counted exactly once");
        }
    }

    #[test]
    fn repeated_batches_never_uncount_a_job_before_it_is_counted() {
        // A worker may take a job the moment it is queued; `pending`
        // must already count it. Many short batches make that race
        // likely (it underflowed within a few thousand batches when the
        // count came after the queueing).
        for _ in 0..3000 {
            let (results, _, stats) = run_indexed(2, (0..40u64).collect(), |_| (), |_, _, i| i);
            assert_eq!(results.len(), 40);
            assert_eq!(stats.executed, 40);
        }
    }

    #[test]
    fn emission_order_is_strict_even_when_late_jobs_finish_first() {
        // Job 0 is made slow; all emissions must still start at 0.
        let emitted = Mutex::new(Vec::new());
        let (_, stats) = service_scope(
            4,
            |_| (),
            |_, index, ()| {
                if index == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
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
        assert_eq!(stats.executed, 16);
    }

    #[test]
    fn resident_feeder_can_trickle_jobs_in() {
        // Jobs arrive with pauses, as on a stdin-fed service; workers
        // must sleep and wake rather than exit early.
        let mut seen = Vec::new();
        let (_, stats) = service_scope(
            2,
            |_| (),
            |_, _, item: u32| item + 1,
            |submitter| {
                for batch in 0..3 {
                    for i in 0..4 {
                        submitter.push(batch * 4 + i);
                    }
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            },
            |_, result| seen.push(result),
        );
        assert_eq!(seen, (1..=12).collect::<Vec<_>>());
        assert_eq!(stats.executed, 12);
    }

    #[test]
    fn stealing_happens_when_one_shard_hogs_the_work() {
        // With 2 shards, even indices land on shard 0, odd on shard 1.
        // Worker 1's jobs are instant; worker 0's first job is slow, so
        // worker 1 must steal the rest of shard 0's backlog.
        let slow = AtomicUsize::new(0);
        let (_, _, stats) = run_indexed(
            2,
            (0..64usize).collect(),
            |_| (),
            |_, _, item| {
                if item == 0 && slow.fetch_add(1, Ordering::SeqCst) == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(40));
                }
                item
            },
        );
        assert!(stats.stolen > 0, "expected steals, got {stats:?}");
        assert_eq!(stats.executed, 64);
    }

    #[test]
    fn pool_stats_serialize_with_documented_keys() {
        let j = PoolStats { shards: 2, stolen: 3, queue_hwm: 5, executed: 8 }.to_json();
        assert_eq!(j.get("shards").and_then(Json::as_u64), Some(2));
        assert_eq!(j.get("stolen_tasks").and_then(Json::as_u64), Some(3));
        assert_eq!(j.get("queue_depth_hwm").and_then(Json::as_u64), Some(5));
        assert_eq!(j.get("executed").and_then(Json::as_u64), Some(8));
    }
}
