//! Per-operator wall-clock profiling: node timers, the sampling profiler
//! shared by an executor tree, and the [`NodeProfile`] records surfaced
//! through [`crate::AnalyzedEvaluation`] and [`crate::QueryStream`].
//!
//! Profiling is a separate axis from the [`crate::EvalStats`] work counters:
//! stats count *elementary steps* (machine-independent, exact under any
//! thread count — they verify the paper's complexity bounds), while profiles
//! measure *wall-clock time* per plan node (machine-dependent — they feed
//! `EXPLAIN ANALYZE` and the server's slow-query diagnostics). Keeping the
//! two apart means the differential suites can keep asserting exact stats
//! equality while timing remains free to vary run over run.
//!
//! # Semantics
//!
//! * **Inclusive times.** A node's `elapsed` includes its children — it
//!   covers building the node's cursor and every `next()` call end-to-end,
//!   and a set the executor computes directly is timed whole. The root therefore
//!   reads as total evaluation time, and a child's share is read by
//!   subtraction.
//! * **Build time** is also reported on its own for pipeline breakers: the
//!   part of `elapsed` spent on the blocking work a breaker performs at
//!   cursor-construction time (hash-join build sides, star fixpoints,
//!   difference/intersection right sides, sorts, memo fills) before the
//!   first row is pulled.
//! * **Parallel operators sum worker time.** Morsel instances share their
//!   node's timer, so `elapsed` aggregates across workers — closer to CPU
//!   time than wall time for the parallel stretches.
//! * **Sampling.** With a stride of `n > 1` only every `n`-th cursor pull is
//!   timed and the measurement is scaled by `n` — row counts stay exact,
//!   times become estimates. `EXPLAIN ANALYZE` always runs at stride 1.

use crate::plan::Plan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Wall-clock and row counters for a single plan node. All fields are
/// relaxed atomics: timers are shared across exchange producers and morsel
/// workers, and profiling must never serialise them.
#[derive(Debug, Default)]
pub(crate) struct NodeTimer {
    /// Rows the node produced (the `actual` of `EXPLAIN ANALYZE`): its
    /// set's size when the executor computed the set directly, else the rows
    /// pulled through its cursor(s), summed across morsels.
    rows: AtomicU64,
    rows_known: AtomicBool,
    /// Nanoseconds measured on unsampled paths (materialised evaluation,
    /// stride-1 cursors).
    full_ns: AtomicU64,
    /// Nanoseconds measured on sampled cursor pulls; scaled by the stride
    /// when read.
    sampled_ns: AtomicU64,
    /// Nanoseconds of blocking cursor-construction work (breakers only).
    build_ns: AtomicU64,
    build_known: AtomicBool,
}

impl NodeTimer {
    pub(crate) fn add_rows(&self, rows: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
        self.rows_known.store(true, Ordering::Relaxed);
    }

    pub(crate) fn add_full(&self, elapsed: Duration) {
        self.full_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_sampled(&self, elapsed: Duration) {
        self.sampled_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn add_build(&self, elapsed: Duration) {
        self.build_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.build_known.store(true, Ordering::Relaxed);
    }

    fn profile(&self, stride: u32) -> NodeProfile {
        let rows = self
            .rows_known
            .load(Ordering::Relaxed)
            .then(|| self.rows.load(Ordering::Relaxed));
        let full = self.full_ns.load(Ordering::Relaxed);
        let sampled = self
            .sampled_ns
            .load(Ordering::Relaxed)
            .saturating_mul(stride.max(1) as u64);
        NodeProfile {
            rows,
            elapsed_us: (full + sampled) / 1_000,
            build_us: self
                .build_known
                .load(Ordering::Relaxed)
                .then(|| self.build_ns.load(Ordering::Relaxed) / 1_000),
        }
    }
}

/// The timer table of one evaluation: its executor and every cursor it
/// compiles, morsel cursors on exchange producers included, record into the
/// same per-node timers, and a [`QueryProfile`] reads them afterwards. The
/// map lock is taken once per *operator* (at cursor construction or when a
/// set is computed), never per row.
#[derive(Debug, Clone)]
pub(crate) struct Profiler {
    timers: Arc<Mutex<HashMap<usize, Arc<NodeTimer>>>>,
    /// Time every `stride`-th cursor pull; 1 = every pull.
    stride: u32,
}

impl Profiler {
    pub(crate) fn new(stride: u32) -> Self {
        Profiler {
            timers: Arc::new(Mutex::new(HashMap::new())),
            stride: stride.max(1),
        }
    }

    pub(crate) fn stride(&self) -> u32 {
        self.stride
    }

    /// The timer for `key` (a plan-node address), created on first use.
    pub(crate) fn timer(&self, key: usize) -> Arc<NodeTimer> {
        let mut timers = self
            .timers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        Arc::clone(timers.entry(key).or_default())
    }

    fn get(&self, key: usize) -> Option<Arc<NodeTimer>> {
        let timers = self
            .timers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        timers.get(&key).cloned()
    }
}

/// Wall-clock and cardinality measurements for one plan node, indexed like
/// `EXPLAIN ANALYZE` actuals: by the node's position in
/// [`PlanNode::preorder`](crate::PlanNode::preorder) over the plan root.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeProfile {
    /// Rows the node produced: its set's size when the executor computed the
    /// set directly, the rows pulled through its cursor otherwise (for a
    /// partially drained pipeline this is the partial count). `None` when
    /// the node never executed (e.g. a memo hit short-circuited it).
    pub rows: Option<u64>,
    /// Wall-clock microseconds spent in the node **including its children**
    /// (and, for parallel operators, summed across morsel workers). Under a
    /// sampling stride `n > 1` this is an `n`-scaled estimate.
    pub elapsed_us: u64,
    /// The part of `elapsed_us` spent on blocking cursor-construction work
    /// for pipeline breakers (hash-join builds, star fixpoints, blocking
    /// right sides, sorts); `None` for fully streaming operators.
    pub build_us: Option<u64>,
}

/// A handle onto one streaming query's timer table, usable **after** the
/// stream finished (drained, or its cursors dropped): morsel workers and
/// cursor wrappers flush their locally-accumulated measurements when their
/// cursor exhausts or drops, so a snapshot taken mid-flight undercounts.
///
/// Obtained from [`QueryStream::profile`](crate::QueryStream::profile); the
/// handle stays valid after the stream itself is consumed (for example by
/// [`QueryStream::channel`](crate::QueryStream::channel)), which is how the
/// server attaches per-node timings to its slow-query records.
#[derive(Debug, Clone)]
pub struct QueryProfile {
    profiler: Profiler,
    /// Plan-node identities in preorder, captured while the plan was alive.
    keys: Vec<usize>,
}

impl QueryProfile {
    pub(crate) fn new(profiler: Profiler, plan: &Plan) -> Self {
        QueryProfile {
            keys: plan
                .root
                .preorder()
                .into_iter()
                .map(crate::exec::node_key)
                .collect(),
            profiler,
        }
    }

    /// Per-node profiles in plan preorder. Nodes that never executed (memo
    /// hits, pruned branches) report `Default` (no rows, zero time).
    pub fn snapshot(&self) -> Vec<NodeProfile> {
        self.keys
            .iter()
            .map(|&key| {
                self.profiler
                    .get(key)
                    .map(|t| t.profile(self.profiler.stride()))
                    .unwrap_or_default()
            })
            .collect()
    }

    /// The sampling stride the profiles were measured under (1 = exact).
    pub fn stride(&self) -> u32 {
        self.profiler.stride()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_scales_sampled_time_by_stride() {
        let t = NodeTimer::default();
        t.add_full(Duration::from_micros(100));
        t.add_sampled(Duration::from_micros(10));
        let p = t.profile(8);
        assert_eq!(p.elapsed_us, 100 + 80);
        assert_eq!(p.rows, None);
        assert_eq!(p.build_us, None);
    }

    #[test]
    fn row_counts_sum_across_instances() {
        let t = NodeTimer::default();
        assert_eq!(t.profile(1).rows, None);
        t.add_rows(0);
        assert_eq!(t.profile(1).rows, Some(0));
        t.add_rows(7);
        t.add_rows(5);
        assert_eq!(t.profile(1).rows, Some(12));
    }

    #[test]
    fn profiler_shares_timers_by_key() {
        let p = Profiler::new(0); // clamped to 1
        assert_eq!(p.stride(), 1);
        p.timer(42).add_build(Duration::from_micros(3));
        p.timer(42).add_rows(2);
        let t = p.timer(42);
        let profile = t.profile(p.stride());
        assert_eq!(profile.build_us, Some(3));
        assert_eq!(profile.rows, Some(2));
    }
}
