//! Scoped worker pool for morsel-driven intra-query parallelism.
//!
//! Morsel-driven execution (Leis et al., "Morsel-Driven Parallelism") carves
//! an operator's input into small contiguous ranges — *morsels* — and lets a
//! pool of worker threads pull morsels until none remain, so the degree of
//! parallelism is a runtime parameter rather than a plan property. This
//! module provides the pool in the only form a zero-dependency crate can:
//! **scoped** `std::thread` workers, spawned per parallel section and joined
//! before it returns. Scoped threads let morsel tasks borrow the store's
//! permutation indexes and intermediate [`TripleSet`](trial_core::TripleSet)s
//! directly (no `Arc`-wrapping of per-query state), and a panicking worker
//! propagates to the coordinating thread on join — nothing is swallowed.
//!
//! Two primitives cover every parallel operator in [`crate::exec`]:
//!
//! * `chunk` — split a slice into near-equal contiguous morsels. It is the
//!   only splitter: the kernels of [`crate::ops`] and the closures carve
//!   their inputs with it, and an index scan's morsel access carves
//!   its permutation run with it;
//! * `run_tasks` — execute a batch of morsel tasks on up to `threads`
//!   workers pulling from a shared queue, returning results **in task
//!   order** (concatenating them reproduces the sequential output exactly —
//!   the determinism the differential suite relies on). At degree 1 the
//!   tasks run inline, which is how each operator has one kernel for every
//!   degree.
//!
//! Every worker accumulates into its own [`EvalStats`] and the coordinator
//! merges them after the join, so counters are exact sums regardless of the
//! interleaving: a parallel evaluation reports the same `pairs_considered`/
//! `triples_scanned`/… as the single-threaded reference, plus a non-zero
//! [`EvalStats::parallel_morsels`]. Counters are equal at every degree.

use crate::cancel::CancelToken;
use crate::engine::EvalStats;
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Mutex;
use trial_core::Triple;

/// The host's available parallelism (1 if it cannot be determined) — the
/// sensible upper bound when auto-configuring
/// [`EvalOptions::threads`](crate::EvalOptions::threads), e.g. for
/// `trial-serve --eval-threads 0`.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `slice` into at most `parts` near-equal contiguous morsels (the
/// first `len % parts` morsels carry one extra element). Never returns an
/// empty morsel: fewer than `parts` slices come back when `slice` is shorter
/// than `parts`, and an empty slice yields no morsels at all.
pub(crate) fn chunk<T>(slice: &[T], parts: usize) -> Vec<&[T]> {
    let parts = parts.max(1).min(slice.len());
    if parts == 0 {
        return Vec::new();
    }
    let base = slice.len() / parts;
    let extra = slice.len() % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(&slice[start..start + len]);
        start += len;
    }
    debug_assert_eq!(start, slice.len());
    out
}

/// Runs `tasks` on up to `threads` scoped worker threads and returns the
/// results **in task order**.
///
/// Workers pull tasks from a shared queue (classic morsel dispatch: a fast
/// worker takes more morsels, so skewed morsels don't idle the pool), each
/// accumulating into a thread-local [`EvalStats`] that is merged into
/// `stats` after all workers have joined — counter totals are therefore
/// identical to a sequential run of the same tasks. With one thread or at
/// most one task everything runs inline on the current thread and
/// [`EvalStats::parallel_morsels`] stays untouched; otherwise it grows by
/// the number of tasks. A panicking task propagates to the caller.
///
/// The morsel loop is a cancellation checkpoint: workers stop popping tasks
/// once `cancel` latches, so a cancelled evaluation abandons its remaining
/// morsels instead of finishing them. The result vector is then **partial**
/// (the completed prefix of each worker, still in task order) — every caller
/// re-checks the token at its own `Result` boundary before the truncated
/// output can be observed as a real answer.
pub(crate) fn run_tasks<T, F>(
    threads: usize,
    tasks: Vec<F>,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> Vec<T>
where
    F: FnOnce(&mut EvalStats) -> T + Send,
    T: Send,
{
    if threads <= 1 || tasks.len() <= 1 {
        let mut out = Vec::with_capacity(tasks.len());
        for task in tasks {
            if cancel.is_cancelled() {
                break;
            }
            out.push(task(stats));
        }
        return out;
    }
    let count = tasks.len();
    let workers = threads.min(count);
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let mut results: Vec<Option<T>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = EvalStats::new();
                    let mut out: Vec<(usize, T)> = Vec::new();
                    loop {
                        // Morsel-loop checkpoint: give up before popping
                        // another task once the token has latched.
                        if cancel.is_cancelled() {
                            break;
                        }
                        // Hold the queue lock only to pop; the task body runs
                        // unlocked. A poisoned queue means a sibling worker
                        // panicked mid-pop, which the join below propagates.
                        let next = queue
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner)
                            .next();
                        match next {
                            Some((index, task)) => out.push((index, task(&mut local))),
                            None => break,
                        }
                    }
                    (local, out)
                })
            })
            .collect();
        for handle in handles {
            let (local, out) = handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            stats.merge(&local);
            for (index, value) in out {
                results[index] = Some(value);
            }
        }
    });
    stats.parallel_morsels += count as u64;
    if cancel.is_cancelled() {
        // Partial delivery: keep completed results in task order; the caller
        // converts the latched token into `Error::Cancelled` before anything
        // downstream can read the truncation as a genuine answer.
        return results.into_iter().flatten().collect();
    }
    results
        .into_iter()
        .map(|slot| slot.expect("every morsel task produces a result"))
        .collect()
}

/// Rows per batch sent through an exchange lane. Batching amortises the
/// channel's lock/wake cost over many rows while keeping the consumer's
/// first-row latency and the per-lane buffer (`depth × batch`) small.
pub(crate) const EXCHANGE_BATCH_ROWS: usize = 256;

/// The consumer endpoint of a row **exchange**: one or more producer threads
/// pump triples into bounded lanes ([`std::sync::mpsc::sync_channel`]) and a
/// single consumer pulls them back out one at a time.
///
/// The exchange is the pipeline's concurrency seam for *serving*: producers
/// run the evaluation (one lane per morsel for ordered, morselizable roots;
/// a single lane otherwise) while the consumer overlaps socket writes with
/// that evaluation. Two properties the server relies on:
///
/// * **Determinism** — lanes are drained strictly in morsel order, so the
///   concatenated rows are exactly the sequential pipeline's rows (the
///   morsels are contiguous ranges of one permutation run).
/// * **Early termination with backpressure** — lanes are bounded, so
///   producers block (rather than buffer) when the consumer is slow, and
///   **dropping the exchange** disconnects every lane: a blocked or future
///   `send` fails and each producer winds down without draining its input.
///   A satisfied limit therefore stops the whole pipeline, just as
///   abandoning a [`crate::QueryStream`] would.
#[derive(Debug)]
pub struct Exchange {
    lanes: std::vec::IntoIter<Receiver<Vec<Triple>>>,
    current: Option<Receiver<Vec<Triple>>>,
    batch: std::vec::IntoIter<Triple>,
    /// Rows still allowed out when a limit was peeled off the plan root for
    /// the morsel path (each producer morsel is limit-less); `None` when the
    /// producers enforce any limit themselves.
    remaining: Option<usize>,
}

impl Exchange {
    pub(crate) fn new(lanes: Vec<Receiver<Vec<Triple>>>, limit: Option<usize>) -> Exchange {
        let mut lanes = lanes.into_iter();
        let current = lanes.next();
        Exchange {
            lanes,
            current,
            batch: Vec::new().into_iter(),
            remaining: limit,
        }
    }

    /// The next result triple, in deterministic pipeline order, or `None`
    /// once every producer has finished (or the peeled limit is reached).
    pub fn next_triple(&mut self) -> Option<Triple> {
        if self.remaining == Some(0) {
            return None;
        }
        loop {
            if let Some(t) = self.batch.next() {
                if let Some(left) = &mut self.remaining {
                    *left -= 1;
                }
                return Some(t);
            }
            match self.current.as_ref()?.recv() {
                Ok(batch) => self.batch = batch.into_iter(),
                // Lane disconnected: its producer is done; move to the next
                // morsel's lane (or report exhaustion after the last).
                Err(_) => self.current = self.lanes.next(),
            }
        }
    }
}

/// The exchange's rows, in the order [`Exchange::next_triple`] yields them.
impl Iterator for Exchange {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        self.next_triple()
    }
}

/// The producer side of an exchange lane: pulls rows from `pull` and sends
/// them downstream in batches of [`EXCHANGE_BATCH_ROWS`]. Returns as soon as
/// the input is exhausted **or the consumer hangs up** (a `send` on a
/// disconnected lane fails) — the latter is how dropping an [`Exchange`]
/// terminates producers early.
pub(crate) fn pump(
    mut pull: impl FnMut(&mut EvalStats) -> Option<Triple>,
    lane: &SyncSender<Vec<Triple>>,
    stats: &mut EvalStats,
) {
    let mut batch = Vec::with_capacity(EXCHANGE_BATCH_ROWS);
    while let Some(t) = pull(stats) {
        batch.push(t);
        if batch.len() == EXCHANGE_BATCH_ROWS {
            let full = std::mem::replace(&mut batch, Vec::with_capacity(EXCHANGE_BATCH_ROWS));
            if lane.send(full).is_err() {
                return;
            }
        }
    }
    if !batch.is_empty() {
        let _ = lane.send(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_covers_disjointly_without_empty_morsels() {
        let data: Vec<u32> = (0..10).collect();
        for parts in 1..=12 {
            let chunks = chunk(&data, parts);
            assert!(chunks.len() <= parts);
            assert!(chunks.iter().all(|c| !c.is_empty()));
            let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
            let (lo, hi) = (sizes.iter().min(), sizes.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "skewed: {sizes:?}");
            let flat: Vec<u32> = chunks.concat();
            assert_eq!(flat, data, "parts={parts}");
        }
        assert!(chunk::<u32>(&[], 4).is_empty());
        assert_eq!(chunk(&data, 0).len(), 1);
    }

    #[test]
    fn run_tasks_preserves_task_order_and_merges_stats() {
        for threads in [1usize, 2, 4, 9] {
            let tasks: Vec<_> = (0u64..8)
                .map(|i| {
                    move |stats: &mut EvalStats| {
                        stats.triples_scanned += i;
                        i * 10
                    }
                })
                .collect();
            let mut stats = EvalStats::new();
            let results = run_tasks(threads, tasks, &CancelToken::none(), &mut stats);
            assert_eq!(results, (0u64..8).map(|i| i * 10).collect::<Vec<_>>());
            assert_eq!(stats.triples_scanned, (0..8).sum::<u64>());
            if threads > 1 {
                assert_eq!(stats.parallel_morsels, 8);
            } else {
                assert_eq!(stats.parallel_morsels, 0);
            }
        }
    }

    #[test]
    fn run_tasks_inline_paths_touch_no_threads() {
        // A single task runs inline even with many threads.
        let mut stats = EvalStats::new();
        let results = run_tasks(
            8,
            vec![|s: &mut EvalStats| {
                s.triples_emitted += 1;
                42
            }],
            &CancelToken::none(),
            &mut stats,
        );
        assert_eq!(results, vec![42]);
        assert_eq!(stats.parallel_morsels, 0);
        assert_eq!(stats.triples_emitted, 1);
        // No tasks at all is fine.
        let none: Vec<fn(&mut EvalStats) -> u32> = Vec::new();
        assert!(run_tasks(4, none, &CancelToken::none(), &mut stats).is_empty());
    }

    #[test]
    fn exchange_preserves_lane_order_across_batch_boundaries() {
        use std::sync::mpsc::sync_channel;
        use trial_core::ObjectId;
        let t = |i: u32| Triple::new(ObjectId(i), ObjectId(0), ObjectId(0));
        // Two lanes with more rows than one batch each: the consumer must see
        // lane 0 fully, then lane 1 — the concatenation-in-morsel-order
        // contract streaming responses rely on.
        let per_lane = EXCHANGE_BATCH_ROWS + 7;
        let mut lanes = Vec::new();
        std::thread::scope(|scope| {
            for lane_no in 0..2u32 {
                let (tx, rx) = sync_channel(2);
                lanes.push(rx);
                scope.spawn(move || {
                    let mut next = lane_no * per_lane as u32;
                    let end = next + per_lane as u32;
                    let mut stats = EvalStats::new();
                    pump(
                        |_s| {
                            (next < end).then(|| {
                                let row = t(next);
                                next += 1;
                                row
                            })
                        },
                        &tx,
                        &mut stats,
                    );
                });
            }
            let mut exchange = Exchange::new(std::mem::take(&mut lanes), None);
            let mut got = Vec::new();
            while let Some(row) = exchange.next_triple() {
                got.push(row);
            }
            let expected: Vec<Triple> = (0..2 * per_lane as u32).map(t).collect();
            assert_eq!(got, expected);
        });
    }

    #[test]
    fn exchange_enforces_a_peeled_limit() {
        use std::sync::mpsc::sync_channel;
        use trial_core::ObjectId;
        let (tx, rx) = sync_channel(4);
        tx.send(vec![
            Triple::new(ObjectId(1), ObjectId(1), ObjectId(1)),
            Triple::new(ObjectId(2), ObjectId(2), ObjectId(2)),
            Triple::new(ObjectId(3), ObjectId(3), ObjectId(3)),
        ])
        .unwrap();
        drop(tx);
        let mut exchange = Exchange::new(vec![rx], Some(2));
        assert!(exchange.next_triple().is_some());
        assert!(exchange.next_triple().is_some());
        assert_eq!(exchange.next_triple(), None);
    }

    #[test]
    fn dropping_the_exchange_stops_a_blocked_producer() {
        use std::sync::mpsc::sync_channel;
        use trial_core::ObjectId;
        // Depth-1 lane and an endless input: the producer must block on
        // `send` after a couple of batches, then exit once the consumer side
        // is dropped — early termination through disconnect, not draining.
        let (tx, rx) = sync_channel(1);
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let mut stats = EvalStats::new();
                let mut pumped = 0u64;
                pump(
                    |_s| {
                        pumped += 1;
                        Some(Triple::new(ObjectId(1), ObjectId(1), ObjectId(1)))
                    },
                    &tx,
                    &mut stats,
                );
                pumped
            });
            let mut exchange = Exchange::new(vec![rx], None);
            assert!(exchange.next_triple().is_some());
            drop(exchange);
            let pumped = handle.join().expect("producer thread panicked");
            // The producer stopped long before anything unbounded happened:
            // at most the in-flight batches plus one being built.
            assert!(pumped <= 4 * EXCHANGE_BATCH_ROWS as u64, "pumped={pumped}");
        });
    }

    #[test]
    fn worker_panics_propagate() {
        type BoxedTask = Box<dyn FnOnce(&mut EvalStats) -> u32 + Send>;
        let tasks: Vec<BoxedTask> = vec![
            Box::new(|_s: &mut EvalStats| 1),
            Box::new(|_s: &mut EvalStats| panic!("morsel exploded")),
        ];
        let mut stats = EvalStats::new();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_tasks(2, tasks, &CancelToken::none(), &mut stats)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn cancelled_run_tasks_abandons_remaining_morsels() {
        use crate::cancel::CancelReason;
        // The first task cancels the shared token; whichever tasks have not
        // been popped yet must never run. With 1 worker the schedule is
        // deterministic: task 0 runs, the rest are abandoned.
        for threads in [1usize, 2, 4] {
            let token = CancelToken::manual();
            let ran = std::sync::atomic::AtomicU64::new(0);
            let tasks: Vec<_> = (0..64)
                .map(|_| {
                    let token = token.clone();
                    let ran = &ran;
                    move |_s: &mut EvalStats| {
                        ran.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        token.cancel(CancelReason::Deadline);
                    }
                })
                .collect();
            let mut stats = EvalStats::new();
            let results = run_tasks(threads, tasks, &token, &mut stats);
            let ran = ran.load(std::sync::atomic::Ordering::Relaxed);
            // At most one pop per worker can slip in before the latch is
            // observed, so almost all of the 64 tasks are abandoned.
            assert!(ran <= threads as u64, "ran={ran} at threads={threads}");
            assert_eq!(results.len() as u64, ran);
        }
        // Inline path with an already-cancelled token runs nothing at all.
        let dead = CancelToken::manual();
        dead.cancel(CancelReason::Shutdown);
        let mut stats = EvalStats::new();
        let tasks: Vec<fn(&mut EvalStats) -> u32> = vec![|_| 1, |_| 2];
        assert!(run_tasks(1, tasks, &dead, &mut stats).is_empty());
    }
}
