//! The plan executor: two walks over a [`PlanNode`] tree.
//!
//! This is the only evaluation path of the [`crate::SmartEngine`] — the
//! logical `Expr` tree is consumed by the planner and never inspected here.
//! The executor owns the per-query memo slots and threads the shared
//! [`EvalStats`] counters through every physical operator.
//!
//! * **Compile to cursors** (`Executor::cursor`) — each operator becomes a
//!   pull-based [`Cursor`](crate::cursor::Cursor): work happens as rows are
//!   pulled and stops the moment the consumer stops (a satisfied
//!   [`PlanNode::Limit`], a closed connection). Pipeline breakers (hash-join
//!   build sides, difference/intersection right sides, star fixpoints, memo
//!   slots, complement inputs, sorts) fill their blocking input at
//!   cursor-construction time through the other walk. A `ScanAccess` says
//!   which part of an index scan's run the pipeline reads — all of it, the
//!   rows after a key (resumable pagination) or one morsel (the exchange
//!   fan-out) — and only the scan interprets it.
//! * **Evaluate to a set** (`Executor::materialize`) — each operator
//!   computes its full [`TripleSet`] with the set-at-a-time kernels of
//!   [`crate::ops`], which also carry the morsel parallelism. A bounded
//!   subtree ([`PlanNode::Limit`], [`PlanNode::TopK`]) switches back to a
//!   cursor pipeline so it still terminates early.
//!
//! The plan shape and the consumer pick the walk, never an option: a limit,
//! a top-k bound or a streamed consumer compiles cursors; a breaker input or
//! a full result runs the kernels.
//!
//! Both stay because each wins somewhere. Only cursors can stop early. And
//! draining cursors into a set in place of the sequential kernels was
//! measured: it left the `engine_mix` benchmark workload where it was
//! (`latency_p50_ms` 19.9 → 19.2, bodies there are top-k bounded) but ran a
//! 500k-row join at 0.89× and a 600k-row union at 0.80× the kernels' speed —
//! a virtual call and a set insertion per row against slice loops and one
//! linear merge.

use crate::compile::{used_positions, CompiledConditions};
use crate::cursor::{
    ArcSetCursor, BoxCursor, ChainUnionCursor, ComplementCursor, DiffCursor, EmptyCursor,
    FilterCursor, HashJoinCursor, IndexJoinCursor, IntersectCursor, LimitCursor, MergeJoinCursor,
    MergeUnionCursor, NestedLoopCursor, ProfiledCursor, RowsCursor, ScanCursor, SetCursor,
    SkipCursor, TopKCursor, UniverseCursor,
};
use crate::engine::{EvalOptions, EvalStats};
use crate::ops::{self, Distinct};
use crate::parallel;
use crate::plan::{Plan, PlanNode};
use crate::profile::{Profiler, QueryProfile};
use crate::reach;
use crate::rpq;
use crate::seminaive::semi_naive_star;
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;
use trial_core::{
    Error, ObjectId, Permutation, RangeCursor, Result, Triple, TripleSet, Triplestore,
};

/// The identity of a plan node for per-node bookkeeping (actuals and wall
/// timers): its address, stable for the lifetime of one evaluation — the
/// plan tree is never mutated while an executor borrows it.
pub(crate) fn node_key(node: &PlanNode) -> usize {
    node as *const PlanNode as usize
}

/// Plan nodes that perform **blocking work at cursor-construction time**
/// (materialising an input, building a table, running a fixpoint) — the
/// pipeline breakers whose construction latency the profiler reports as
/// `build_us`, separate from per-row pull time. A reach star's build is its
/// base; its closure runs source by source as it is pulled, so that work is
/// pull time, as is all of a `PathNfa`'s.
fn records_build_time(node: &PlanNode) -> bool {
    matches!(
        node,
        PlanNode::HashJoin { .. }
            | PlanNode::NestedLoopJoin { .. }
            | PlanNode::Diff { .. }
            | PlanNode::Intersect { .. }
            | PlanNode::Complement { .. }
            | PlanNode::StarSemiNaive { .. }
            | PlanNode::StarReach { .. }
            | PlanNode::Memo { .. }
            | PlanNode::Sort { .. }
            | PlanNode::Universe { .. }
    )
}

/// Which part of an index scan's permutation run a compiled pipeline reads.
/// Only [`PlanNode::IndexScan`] interprets it; the operators that forward it
/// (and what the others answer) are spelled out in the cursor walk.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ScanAccess {
    /// The whole run.
    Whole,
    /// The rows whose key under the permutation is strictly greater than
    /// the given one.
    After(Permutation, [ObjectId; 3]),
    /// The `index`-th of `of` contiguous morsels of the run.
    Morsel {
        /// Position of the morsel in run order.
        index: usize,
        /// How many morsels the run is carved into (at most).
        of: usize,
    },
}

/// Memo slots shared by an executor and its worker-thread siblings: one
/// mutex-guarded slot per [`PlanNode::Memo`]. The slot's lock is **held
/// while the shared sub-expression is computed**, so exactly one executor
/// ever evaluates it (concurrent arrivals block, then hit) — work counters
/// stay identical to the single-threaded run. Holding a lock across the
/// recursive evaluation cannot deadlock: a memo slot can only wait on slots
/// of its *strict* sub-expressions, and the sub-expression relation is
/// acyclic.
type MemoSlots = Arc<Vec<std::sync::Mutex<Option<Arc<TripleSet>>>>>;

/// Interprets plan trees; one instance per top-level evaluation.
pub(crate) struct Executor<'a> {
    store: &'a Triplestore,
    options: EvalOptions,
    memo: MemoSlots,
    /// Per-node wall timers and actual-cardinality records: every pull timed
    /// for an analyzed run, one in [`EvalOptions::profile_sample`] when that
    /// is positive, absent otherwise.
    profiler: Option<Profiler>,
}

impl<'a> Executor<'a> {
    /// Creates an executor with one empty memo slot per [`PlanNode::Memo`]
    /// in the plan. `analyze` turns on the `EXPLAIN ANALYZE` bookkeeping:
    /// every node's actual output cardinality is recorded and the wall-clock
    /// profiler times every pull instead of one in
    /// [`EvalOptions::profile_sample`].
    pub(crate) fn new(
        store: &'a Triplestore,
        options: EvalOptions,
        plan: &Plan,
        analyze: bool,
    ) -> Self {
        let stride = if analyze { 1 } else { options.profile_sample };
        Executor {
            store,
            options,
            memo: Arc::new((0..plan.memo_slots).map(|_| Default::default()).collect()),
            profiler: (stride > 0).then(|| Profiler::new(stride)),
        }
    }

    /// A sibling executor for evaluating an independent subtree on a worker
    /// thread. It shares the store, options, **memo slots** (so a repeated
    /// sub-expression is still computed exactly once, whichever side reaches
    /// it first) and the **profiler** — sibling measurements land in the
    /// same per-node timers, no merge step needed.
    fn child(&self) -> Executor<'a> {
        Executor {
            store: self.store,
            options: self.options.clone(),
            memo: Arc::clone(&self.memo),
            profiler: self.profiler.clone(),
        }
    }

    /// Resolves a memo slot: returns the cached sub-result or computes it
    /// with `compute` while holding the slot's lock (see [`MemoSlots`]).
    fn memo_slot(
        &mut self,
        slot: usize,
        stats: &mut EvalStats,
        compute: impl FnOnce(&mut Self, &mut EvalStats) -> Result<TripleSet>,
    ) -> Result<Arc<TripleSet>> {
        let slots = Arc::clone(&self.memo);
        let mut guard = slots[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(cached) = &*guard {
            stats.memo_hits += 1;
            return Ok(Arc::clone(cached));
        }
        let result = Arc::new(compute(self, stats)?);
        *guard = Some(Arc::clone(&result));
        Ok(result)
    }

    /// Records a node's **materialised** output cardinality (no-op unless
    /// the profiler is active).
    fn record(&mut self, node: &PlanNode, rows: usize) {
        if let Some(profiler) = &self.profiler {
            profiler.timer(node_key(node)).set_mat_rows(rows as u64);
        }
    }

    /// `EXPLAIN ANALYZE` actuals in plan preorder: each node's materialised
    /// output cardinality, `None` for nodes that only executed inside a
    /// streaming pipeline (or with the profiler off).
    pub(crate) fn node_actuals(&self, plan: &Plan) -> Vec<Option<u64>> {
        let nodes = plan.root.preorder();
        match &self.profiler {
            Some(profiler) => nodes
                .into_iter()
                .map(|node| profiler.mat_rows_of(node_key(node)))
                .collect(),
            None => vec![None; nodes.len()],
        }
    }

    /// A read handle onto this evaluation's per-node timers, valid after the
    /// executor (and any cursors it compiled) are gone; `None` with the
    /// profiler off.
    pub(crate) fn query_profile(&self, plan: &Plan) -> Option<QueryProfile> {
        self.profiler
            .as_ref()
            .map(|profiler| QueryProfile::new(profiler.clone(), plan))
    }

    /// Compiles a plan node into a streaming cursor over its whole output,
    /// materialising exactly the pipeline-breaking inputs.
    pub(crate) fn cursor(
        &mut self,
        node: &PlanNode,
        stats: &mut EvalStats,
    ) -> Result<BoxCursor<'a>> {
        let cursor = self.cursor_at(node, ScanAccess::Whole, stats)?;
        Ok(cursor.expect("every operator compiles for whole-run access"))
    }

    /// Compiles `node` into independently drainable **morsel pipelines**
    /// whose in-order concatenation yields exactly the rows of
    /// [`Executor::cursor`] on the same node — the producer side of
    /// [`crate::QueryStream::channel`]'s ordered multi-lane exchange. `None`
    /// when the node is not morselizable (see [`ScanAccess::Morsel`]) and the
    /// exchange must fall back to a single producer. Every morsel instance
    /// shares the node's timer: rows and time sum across the fan-out
    /// (elapsed reads as worker time, not wall time).
    pub(crate) fn morsel_cursors(
        &mut self,
        node: &PlanNode,
        parts: usize,
        stats: &mut EvalStats,
    ) -> Result<Option<Vec<BoxCursor<'a>>>> {
        let mut cursors = Vec::with_capacity(parts);
        for index in 0..parts {
            let access = ScanAccess::Morsel { index, of: parts };
            match self.cursor_at(node, access, stats)? {
                Some(cursor) => cursors.push(cursor),
                // The scanned run carved into fewer morsels than asked for.
                None => break,
            }
        }
        Ok((!cursors.is_empty()).then_some(cursors))
    }

    /// The compile-to-cursor walk: `node` as a pull-based pipeline reading
    /// the part of its scan selected by `access`, or `None` when `access` is
    /// a morsel the node cannot serve. A seek needs `node` ordered under the
    /// seek permutation. With the profiler active every compiled operator is
    /// wrapped in a [`ProfiledCursor`] shim, and pipeline breakers
    /// additionally record their blocking construction work as build time.
    pub(crate) fn cursor_at(
        &mut self,
        node: &PlanNode,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Result<Option<BoxCursor<'a>>> {
        let Some(profiler) = self.profiler.clone() else {
            return self.cursor_inner(node, access, stats);
        };
        let start = Instant::now();
        let Some(inner) = self.cursor_inner(node, access, stats)? else {
            return Ok(None);
        };
        let timer = profiler.timer(node_key(node));
        if records_build_time(node) {
            timer.add_build(start.elapsed());
        }
        Ok(Some(Box::new(ProfiledCursor::new(
            inner,
            timer,
            profiler.stride(),
        ))))
    }

    fn cursor_inner(
        &mut self,
        node: &PlanNode,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Result<Option<BoxCursor<'a>>> {
        let cursor: BoxCursor<'a> = match (node, access) {
            (
                PlanNode::IndexScan {
                    relation,
                    bound,
                    residual,
                    order,
                    ..
                },
                _,
            ) => {
                let (base, index) = self
                    .store
                    .relation_with_index(relation)
                    .ok_or_else(|| Error::UnknownRelation(relation.clone()))?;
                let mut run = match bound {
                    None => index.scan_cursor(base, *order),
                    Some((component, value)) => index.matching_cursor(base, *component, *value),
                };
                match access {
                    ScanAccess::Whole => {}
                    // `O(log n)` on the permutation run.
                    ScanAccess::After(order, after) => run.seek(order, after),
                    // Contiguous, disjoint, non-empty sub-ranges of the run.
                    ScanAccess::Morsel { index, of } => {
                        match parallel::chunk(run.rest(), of).get(index) {
                            Some(morsel) => run = RangeCursor::new(morsel),
                            None => return Ok(None),
                        }
                    }
                }
                let residual = (!residual.is_empty())
                    .then(|| CompiledConditions::compile(residual, self.store));
                Box::new(ScanCursor {
                    // Mirror the set kernels' instrumentation: plain
                    // relation passthroughs are free, indexed runs and
                    // filtered scans count their rows.
                    instrument: bound.is_some() || residual.is_some(),
                    run,
                    residual,
                    store: self.store,
                })
            }
            // Filters distribute over any access to their input.
            (PlanNode::Filter { input, cond, .. }, _) => {
                let Some(input) = self.cursor_at(input, access, stats)? else {
                    return Ok(None);
                };
                Box::new(FilterCursor {
                    input,
                    cond: CompiledConditions::compile(cond, self.store),
                    store: self.store,
                })
            }
            // A limit passes a seek through (the countdown restarts fresh
            // for the resumed page) but not a morsel: per-morsel countdowns
            // would not concatenate to the whole stream's.
            (PlanNode::Limit { input, limit, .. }, ScanAccess::Whole | ScanAccess::After(..)) => {
                if *limit == 0 {
                    return Ok(Some(Box::new(EmptyCursor)));
                }
                // A stream sorted under *any* permutation key is strictly
                // increasing in a total order, hence duplicate-free: the
                // countdown needs no seen-set.
                let seen = input
                    .ordering()
                    .is_none()
                    .then(std::collections::HashSet::new);
                let Some(input) = self.cursor_at(input, access, stats)? else {
                    return Ok(None);
                };
                Box::new(LimitCursor {
                    input,
                    remaining: *limit,
                    seen,
                })
            }
            // No other operator can hand a partial access down to a scan.
            // Only contiguous ranges of one permutation run are morsels...
            (_, ScanAccess::Morsel { .. }) => return Ok(None),
            // ...and a seek degrades to dropping the already-served prefix:
            // correct for any ordered root, linear in the rows skipped.
            (_, ScanAccess::After(order, after)) => {
                let Some(input) = self.cursor_inner(node, ScanAccess::Whole, stats)? else {
                    return Ok(None);
                };
                Box::new(SkipCursor {
                    input,
                    order,
                    after,
                    skipping: true,
                })
            }
            (PlanNode::Universe { .. }, ScanAccess::Whole) => {
                let adom = ops::universe_domain(self.store, &self.options)?;
                Box::new(UniverseCursor::new(adom))
            }
            (PlanNode::Empty, ScanAccess::Whole) => Box::new(EmptyCursor),
            (
                PlanNode::HashJoin {
                    left,
                    right,
                    output,
                    cond,
                    keys,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                // Build side: the one genuine materialisation of a hash
                // join. The build itself shards across workers when large;
                // the probe side stays a sequential pull-based stream (its
                // consumer may stop at any triple).
                let build = self.materialize(right, stats)?;
                let degree = self.options.degree(build.len());
                let cond = CompiledConditions::compile(cond, self.store);
                let [left_used, right_used] = used_positions(output, &cond);
                let cancel = &self.options.cancel;
                let table = ops::JoinTable::build(&build, keys, right_used, degree, cancel, stats);
                // A build cut short by cancellation is a partial table.
                self.options.cancel.check()?;
                let probe = self.cursor(left, stats)?;
                stats.joins_executed += 1;
                Box::new(HashJoinCursor {
                    probe,
                    seen: Distinct::new(left_used),
                    table,
                    output: *output,
                    cond,
                    store: self.store,
                    buf: Vec::new(),
                    buf_pos: 0,
                })
            }
            (
                PlanNode::MergeJoin {
                    left,
                    right,
                    output,
                    cond,
                    key,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                // Both inputs stream pre-sorted on the join-key component
                // (the planner guarantees it); the join is a synchronized
                // pass with no build side and no hash table.
                let l = self.cursor(left, stats)?;
                let r = self.cursor(right, stats)?;
                stats.joins_executed += 1;
                let cond = CompiledConditions::compile(cond, self.store);
                let [left_used, right_used] = used_positions(output, &cond);
                Box::new(MergeJoinCursor {
                    left: l,
                    right: r,
                    lc: key.0.component_index(),
                    rc: key.1.component_index(),
                    output: *output,
                    cond,
                    store: self.store,
                    emit_once: *output == trial_core::OutputSpec::IDENTITY,
                    l_cur: None,
                    group: Vec::new(),
                    group_key: None,
                    left_seen: Distinct::new(left_used),
                    right_seen: Distinct::new(right_used),
                    group_pos: 0,
                    r_peek: None,
                    primed: false,
                })
            }
            (
                PlanNode::IndexNestedLoopJoin {
                    outer,
                    relation,
                    probe,
                    output,
                    cond,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                let (base, index) = self
                    .store
                    .relation_with_index(relation)
                    .ok_or_else(|| Error::UnknownRelation(relation.clone()))?;
                let outer = self.cursor(outer, stats)?;
                stats.joins_executed += 1;
                let cond = CompiledConditions::compile(cond, self.store);
                let [outer_used, _] = used_positions(output, &cond);
                Box::new(IndexJoinCursor {
                    outer,
                    seen: Distinct::new(outer_used),
                    base,
                    index,
                    probe: *probe,
                    output: *output,
                    cond,
                    store: self.store,
                    current: None,
                    run: &[],
                    run_pos: 0,
                })
            }
            (
                PlanNode::NestedLoopJoin {
                    left,
                    right,
                    output,
                    cond,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                let right = self.materialize(right, stats)?;
                let left = self.cursor(left, stats)?;
                stats.joins_executed += 1;
                Box::new(NestedLoopCursor {
                    left,
                    right,
                    output: *output,
                    cond: CompiledConditions::compile(cond, self.store),
                    store: self.store,
                    current: None,
                    r_pos: 0,
                })
            }
            (PlanNode::Union { left, right, .. }, ScanAccess::Whole) => {
                let l = self.cursor(left, stats)?;
                let r = self.cursor(right, stats)?;
                // Merge whenever the two sides share *any* sort order (not
                // just the canonical one), so ordered deliveries survive
                // unions; concatenate otherwise.
                let shared = left.ordering().filter(|p| right.ordering() == Some(*p));
                if let Some(perm) = shared {
                    Box::new(MergeUnionCursor {
                        left: l,
                        right: r,
                        perm,
                        l_peek: None,
                        r_peek: None,
                        primed: false,
                    })
                } else {
                    Box::new(ChainUnionCursor {
                        left: l,
                        right: r,
                        on_right: false,
                    })
                }
            }
            (PlanNode::Diff { left, right, .. }, ScanAccess::Whole) => {
                let rhs = self.materialize(right, stats)?;
                let input = self.cursor(left, stats)?;
                Box::new(DiffCursor { input, rhs })
            }
            (PlanNode::Intersect { left, right, .. }, ScanAccess::Whole) => {
                let rhs = self.materialize(right, stats)?;
                let input = self.cursor(left, stats)?;
                Box::new(IntersectCursor { input, rhs })
            }
            (PlanNode::Complement { input, .. }, ScanAccess::Whole) => {
                let exclude = self.materialize(input, stats)?;
                let adom = ops::universe_domain(self.store, &self.options)?;
                Box::new(ComplementCursor {
                    universe: UniverseCursor::new(adom),
                    exclude,
                })
            }
            (
                PlanNode::StarSemiNaive {
                    input,
                    output,
                    cond,
                    direction,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                let base = self.materialize(input, stats)?;
                let result = semi_naive_star(
                    &base,
                    output,
                    cond,
                    *direction,
                    self.store,
                    &self.options,
                    stats,
                )?;
                Box::new(SetCursor::new(result))
            }
            // Proposition 5 closures stream source by source, in SPO order:
            // only the base of a reach star is materialised up front.
            (
                PlanNode::StarReach {
                    input, same_label, ..
                },
                ScanAccess::Whole,
            ) => {
                let base = self.materialize(input, stats)?;
                let cancel = self.options.cancel.clone();
                Box::new(reach::reach_cursor(base, *same_label, cancel))
            }
            (
                PlanNode::PathNfa {
                    relation,
                    path,
                    max_hops,
                    ..
                },
                ScanAccess::Whole,
            ) => {
                let cancel = self.options.cancel.clone();
                Box::new(rpq::path_cursor(
                    self.store, relation, path, *max_hops, cancel,
                )?)
            }
            (PlanNode::Memo { slot, input }, ScanAccess::Whole) => {
                let set =
                    self.memo_slot(*slot, stats, |this, stats| this.materialize(input, stats))?;
                Box::new(ArcSetCursor { set, pos: 0 })
            }
            (PlanNode::Sort { input, order, .. }, ScanAccess::Whole) => {
                // The order breaker: materialise the input (set-at-a-time,
                // breakers beneath still parallelise), then re-emit in the
                // requested permutation's key order.
                let set = self.materialize(input, stats)?;
                if *order == Permutation::Spo {
                    Box::new(SetCursor::new(set))
                } else {
                    let mut rows = set.into_vec();
                    rows.sort_unstable_by_key(|t| order.key(t));
                    Box::new(RowsCursor { rows, pos: 0 })
                }
            }
            (
                PlanNode::TopK {
                    input, k, order, ..
                },
                ScanAccess::Whole,
            ) => {
                if *k == 0 {
                    return Ok(Some(Box::new(EmptyCursor)));
                }
                let input = self.cursor(input, stats)?;
                Box::new(TopKCursor {
                    input,
                    k: *k,
                    order: *order,
                    out: Vec::new(),
                    pos: 0,
                    drained: false,
                    cancel: self.options.cancel.checker(),
                })
            }
        };
        Ok(Some(cursor))
    }

    /// The evaluate-to-set walk: `node`'s full output as a [`TripleSet`].
    ///
    /// This is how pipeline breakers consume their blocking inputs and how
    /// an unbounded evaluation collects its result: operators whose output
    /// is naturally a full set build it directly with the set-at-a-time
    /// kernels (see the module docs for what pulling it row by row through
    /// cursors would cost). Records per-node actual cardinalities when the
    /// profiler is active.
    pub(crate) fn materialize(
        &mut self,
        node: &PlanNode,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        // Per-node checkpoint: every operator (and every fixpoint base,
        // breaker input, memo fill) passes through here, so a latched token
        // stops the evaluation at the next node boundary — and discards any
        // partial morsel output a cancelled `run_tasks` fan-out may have
        // produced.
        self.options.cancel.check()?;
        // A bounded subtree runs as a cursor pipeline whose profiling shims
        // time it already.
        let bounded = matches!(node, PlanNode::Limit { .. } | PlanNode::TopK { .. });
        let start = (self.profiler.is_some() && !bounded).then(Instant::now);
        let result = self.eval_set(node, stats)?;
        // Re-check on the way out: a morsel fan-out (or a bounded drain)
        // cancelled mid-node delivers a truncated set, which must surface as
        // the error, not as this node's result.
        self.options.cancel.check()?;
        if let (Some(profiler), Some(start)) = (&self.profiler, start) {
            // Inclusive wall time: a parent's measurement covers its
            // children (mirroring the cursor shim's semantics).
            profiler.timer(node_key(node)).add_full(start.elapsed());
        }
        self.record(node, result.len());
        Ok(result)
    }

    /// Evaluates the two inputs of a binary operator, overlapping them on
    /// two threads when parallelism is on and both sides are estimated
    /// large enough to be worth a spawn: the right (blocking) side
    /// materialises on a worker driven by a sibling executor while the left
    /// side runs on the current thread — how difference/intersection right
    /// sides and join build sides stop serialising behind their siblings.
    fn eval_pair(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        stats: &mut EvalStats,
    ) -> Result<(TripleSet, TripleSet)> {
        if self.options.degree(left.est().min(right.est())) == 1 {
            let l = self.materialize(left, stats)?;
            let r = self.materialize(right, stats)?;
            return Ok((l, r));
        }
        let mut far = self.child();
        // The sibling shares the profiler: its per-node measurements land in
        // the same timers, so nothing needs merging back.
        let (l, r) = parallel::join_pair(
            |stats| self.materialize(left, stats),
            move |stats| far.materialize(right, stats),
            stats,
        );
        Ok((l?, r?))
    }

    fn eval_set(&mut self, node: &PlanNode, stats: &mut EvalStats) -> Result<TripleSet> {
        match node {
            PlanNode::IndexScan {
                relation,
                bound,
                residual,
                ..
            } => self.index_scan(relation, *bound, residual, stats),
            PlanNode::Universe { .. } => ops::universe(self.store, &self.options, stats),
            PlanNode::Empty => Ok(TripleSet::new()),
            PlanNode::Filter { input, cond, .. } => {
                let input = self.materialize(input, stats)?;
                let cond = CompiledConditions::compile(cond, self.store);
                let degree = self.options.degree(input.len());
                let cancel = &self.options.cancel;
                let rows = ops::select(input.as_slice(), &cond, self.store, degree, cancel, stats);
                Ok(TripleSet::from_sorted_vec(rows))
            }
            PlanNode::HashJoin {
                left,
                right,
                output,
                cond,
                keys,
                ..
            } => {
                let (l, r) = self.eval_pair(left, right, stats)?;
                let cond = CompiledConditions::compile(cond, self.store);
                // Build on the planner's chosen keys so execution always
                // matches what explain() displays; shard the build and
                // partition the probe across workers when the sides are
                // large enough.
                let cancel = &self.options.cancel;
                let build_start = self.profiler.is_some().then(Instant::now);
                let [_, right_used] = used_positions(output, &cond);
                let degree = self.options.degree(r.len());
                let table = ops::JoinTable::build(&r, keys, right_used, degree, cancel, stats);
                // Mirror the cursor path's breaker semantics: the blocking
                // table construction is reported as build time.
                if let (Some(profiler), Some(start)) = (&self.profiler, build_start) {
                    profiler.timer(node_key(node)).add_build(start.elapsed());
                }
                let degree = self.options.degree(l.len());
                Ok(ops::hash_join_probe(
                    &l, &table, output, &cond, self.store, degree, cancel, stats,
                ))
            }
            PlanNode::MergeJoin {
                left,
                right,
                output,
                cond,
                key,
                ..
            } => {
                let (l, r) = self.eval_pair(left, right, stats)?;
                let cond = CompiledConditions::compile(cond, self.store);
                let lc = key.0.component_index();
                let rc = key.1.component_index();
                // Key-sorted views of the two sides: borrowed straight from
                // a store permutation when a side is a stored relation,
                // sorted copies otherwise. SPO keys borrow the set itself.
                let l_sorted = self.key_sorted_view(left, &l, lc);
                let r_sorted = self.key_sorted_view(right, &r, rc);
                let degree = self.options.degree(l.len().max(r.len()));
                Ok(ops::merge_join(
                    &l_sorted,
                    &r_sorted,
                    lc,
                    rc,
                    output,
                    &cond,
                    self.store,
                    degree,
                    &self.options.cancel,
                    stats,
                ))
            }
            PlanNode::IndexNestedLoopJoin {
                outer,
                relation,
                probe,
                output,
                cond,
                ..
            } => {
                let outer = self.materialize(outer, stats)?;
                let (base, index) = self
                    .store
                    .relation_with_index(relation)
                    .ok_or_else(|| Error::UnknownRelation(relation.clone()))?;
                let cond = CompiledConditions::compile(cond, self.store);
                Ok(ops::index_nested_loop_join(
                    &outer,
                    base,
                    index,
                    *probe,
                    output,
                    &cond,
                    self.store,
                    self.options.degree(outer.len()),
                    &self.options.cancel,
                    stats,
                ))
            }
            PlanNode::NestedLoopJoin {
                left,
                right,
                output,
                cond,
                ..
            } => {
                let (l, r) = self.eval_pair(left, right, stats)?;
                let cond = CompiledConditions::compile(cond, self.store);
                let degree = self.options.degree(l.len());
                let cancel = &self.options.cancel;
                Ok(ops::nested_loop_join(
                    &l, &r, output, &cond, self.store, degree, cancel, stats,
                ))
            }
            PlanNode::Union { left, right, .. } => {
                let (l, r) = self.eval_pair(left, right, stats)?;
                stats.triples_scanned += (l.len() + r.len()) as u64;
                Ok(l.union(&r))
            }
            PlanNode::Diff { left, right, .. } => {
                // The right side materialises concurrently with the left
                // when parallelism is on (see eval_pair).
                let (l, r) = self.eval_pair(left, right, stats)?;
                stats.triples_scanned += (l.len() + r.len()) as u64;
                Ok(l.difference(&r))
            }
            PlanNode::Intersect { left, right, .. } => {
                let (l, r) = self.eval_pair(left, right, stats)?;
                stats.triples_scanned += (l.len() + r.len()) as u64;
                Ok(l.intersection(&r))
            }
            PlanNode::Complement { input, .. } => {
                // With parallelism on, the excluded input materialises on a
                // worker while the universe builds on the current thread.
                let (e, u) = if self.options.degree(input.est()) > 1 {
                    let mut far = self.child();
                    let (u, e) = parallel::join_pair(
                        |stats| ops::universe(self.store, &self.options, stats),
                        move |stats| far.materialize(input, stats),
                        stats,
                    );
                    (e?, u?)
                } else {
                    let e = self.materialize(input, stats)?;
                    (e, ops::universe(self.store, &self.options, stats)?)
                };
                stats.triples_scanned += (e.len() + u.len()) as u64;
                Ok(u.difference(&e))
            }
            PlanNode::StarSemiNaive {
                input,
                output,
                cond,
                direction,
                ..
            } => {
                let base = self.materialize(input, stats)?;
                semi_naive_star(
                    &base,
                    output,
                    cond,
                    *direction,
                    self.store,
                    &self.options,
                    stats,
                )
            }
            PlanNode::StarReach {
                input, same_label, ..
            } => {
                let base = self.materialize(input, stats)?;
                self.star_reach(&base, *same_label, stats)
            }
            PlanNode::PathNfa {
                relation,
                path,
                max_hops,
                ..
            } => self.path_nfa(relation, path, *max_hops, stats),
            PlanNode::Memo { slot, input } => {
                let set =
                    self.memo_slot(*slot, stats, |this, stats| this.materialize(input, stats))?;
                Ok((*set).clone())
            }
            PlanNode::Limit { .. } | PlanNode::TopK { .. } => {
                // The first `limit` distinct triples the pipeline yields
                // (the `k` smallest for a top-k), with evaluation stopping at
                // the boundary. This is the **explicit sequential fallback**
                // of the parallel executor: a parallel drain would race
                // workers past the limit and forfeit early termination, and
                // the top-k cursor's bounded heap is what keeps memory at
                // ≤ k buffered rows above the deepest breaker (breakers
                // beneath still parallelise inside their own
                // materialisation).
                let mut cursor = self.cursor(node, stats)?;
                // Seed capacity from the estimate, capped so a wild estimate
                // cannot over-allocate.
                let mut out = Vec::with_capacity(node.est().min(1 << 16));
                // The drain is a cancellation checkpoint: the subtree can be
                // long-running and this loop is its only pull site. Cursors
                // are infallible, so a cancelled pipeline just ends early;
                // `materialize` turns the latch into the structured error
                // before the truncated drain can pass for a complete result.
                let mut checker = self.options.cancel.checker();
                while let Some(t) = cursor.next(stats) {
                    if checker.should_stop() {
                        break;
                    }
                    out.push(t);
                }
                Ok(if node.ordered() {
                    TripleSet::from_sorted_vec(out)
                } else {
                    TripleSet::from_vec(out)
                })
            }
            // Sets carry no order: a sort is an emit-order directive for
            // the cursor walk and the identity here.
            PlanNode::Sort { input, .. } => self.materialize(input, stats),
        }
    }

    /// A view of `set` sorted by the key component `component`, borrowing
    /// where the order is already available: the set itself for component 0
    /// (canonical order) or the store's cached permutation when `node` scans
    /// a stored relation unfiltered; a sorted copy otherwise.
    fn key_sorted_view<'s>(
        &self,
        node: &PlanNode,
        set: &'s TripleSet,
        component: usize,
    ) -> Cow<'s, [Triple]>
    where
        'a: 's,
    {
        if component == 0 {
            return Cow::Borrowed(set.as_slice());
        }
        if let PlanNode::IndexScan {
            relation,
            bound: None,
            residual,
            ..
        } = node
        {
            if residual.is_empty() {
                if let Some((base, index)) = self.store.relation_with_index(relation) {
                    return Cow::Borrowed(
                        index.permutation(base, Permutation::keyed_on(component)),
                    );
                }
            }
        }
        let mut rows = set.as_slice().to_vec();
        let perm = Permutation::keyed_on(component);
        rows.sort_unstable_by_key(|t| perm.key(t));
        Cow::Owned(rows)
    }

    /// Scans a relation, serving a pushed-down constant binding from the
    /// matching permutation index. A residual filter is [`ops::select`] on
    /// the scanned run.
    fn index_scan(
        &self,
        relation: &str,
        bound: Option<(usize, trial_core::ObjectId)>,
        residual: &trial_core::Conditions,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        let (base, index) = self
            .store
            .relation_with_index(relation)
            .ok_or_else(|| Error::UnknownRelation(relation.to_owned()))?;
        let (run, component) = match bound {
            // A plain relation passthrough is free.
            None if residual.is_empty() => return Ok(base.clone()),
            None => (base.as_slice(), 0),
            Some((component, value)) => (index.matching(base, component, value), component),
        };
        let out = if residual.is_empty() {
            // An unfiltered bounded run is a plain copy.
            stats.triples_scanned += run.len() as u64;
            stats.triples_emitted += run.len() as u64;
            run.to_vec()
        } else {
            let cond = CompiledConditions::compile(residual, self.store);
            let degree = self.options.degree(run.len());
            ops::select(run, &cond, self.store, degree, &self.options.cancel, stats)
        };
        // Runs of the SPO permutation are already in canonical order; the
        // other permutations interleave, so their runs are re-sorted.
        Ok(if component == 0 {
            TripleSet::from_sorted_vec(out)
        } else {
            TripleSet::from_vec(out)
        })
    }

    /// Runs a Proposition 5 reachability star over its materialised base.
    fn star_reach(
        &self,
        base: &TripleSet,
        same_label: bool,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        // One BFS per `(x, ℓ)` source: the base size bounds the number of
        // sources, which is what the morsel fan-out partitions.
        let cancel = &self.options.cancel;
        let degree = self.options.degree(base.len());
        let result = reach::reach_star(base, same_label, degree, cancel, stats);
        // A closure cut short by cancellation is a partial set: surface the
        // error here so it never reaches downstream operators or caches.
        cancel.check()?;
        Ok(result)
    }

    /// Evaluates a [`PlanNode::PathNfa`] leaf: a product-graph BFS over the
    /// stored relation's SPO run, with the roots fanned out across workers
    /// like [`Self::star_reach`]'s.
    fn path_nfa(
        &self,
        relation: &str,
        path: &trial_parser::PathExpr,
        max_hops: Option<usize>,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        let base = self.store.require_relation(relation)?;
        // One product BFS per root (a subject, or any node when the path
        // accepts ε): that is the unit the fan-out partitions, so size the
        // degree on the relation's size as a proxy.
        let degree = self.options.degree(base.len());
        rpq::eval_on_store(
            self.store,
            relation,
            path,
            max_hops,
            degree,
            &self.options.cancel,
            stats,
        )
    }
}

#[cfg(test)]
mod tests {
    //! The properties the two walks are held to, over a fixed corpus that
    //! reaches every operator and over random stores × expressions × bounds,
    //! each at threads 1/2/4 with the morsel threshold off.

    use super::*;
    use crate::planner::tests::expression_zoo;
    use crate::{Engine, NaiveEngine, QueryStream, SmartEngine};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use trial_core::builder::queries;
    use trial_core::{output, Conditions, Expr, Pos, StarDirection, TriplestoreBuilder};

    /// `(order, limit, top-k)` of one query.
    type Knobs = (Option<Permutation>, Option<usize>, Option<usize>);

    fn engine(threads: usize) -> SmartEngine {
        SmartEngine::with_options(EvalOptions {
            threads,
            parallel_min_rows: 0,
            ..EvalOptions::default()
        })
    }

    fn drain(mut cursor: BoxCursor<'_>, stats: &mut EvalStats) -> Vec<Triple> {
        std::iter::from_fn(|| cursor.next(stats)).collect()
    }

    fn drain_stream(mut stream: QueryStream<'_>) -> Vec<Triple> {
        std::iter::from_fn(|| stream.next_triple()).collect()
    }

    /// Holds one query — `planner` builds its plan for given knobs, `naive`
    /// is its unbounded result by the independent engine — to every walk
    /// property at threads 1/2/4. Returns the operators both walks were
    /// started from and the morsels the workers executed.
    fn check(
        store: &Triplestore,
        naive: &TripleSet,
        planner: &dyn Fn(&SmartEngine, Knobs) -> Plan,
        (order, limit, topk): Knobs,
    ) -> (BTreeSet<String>, u64) {
        let mut operators = BTreeSet::new();
        let mut stats = EvalStats::new();
        for threads in [1, 2, 4] {
            let engine = engine(threads);
            let plan = planner(&engine, (order, limit, topk));
            let mut executor = Executor::new(store, engine.options.clone(), &plan, false);
            for node in plan.root.preorder() {
                let label = node.label();
                operators.extend(label.split_whitespace().next().map(str::to_owned));
                // Started at any node, the set walk and the drained cursor
                // walk agree, and a claimed order is the order rows come in.
                let set = executor.materialize(node, &mut stats).unwrap();
                let rows = drain(executor.cursor(node, &mut stats).unwrap(), &mut stats);
                assert_eq!(
                    set,
                    rows.iter().copied().collect(),
                    "walks diverge at {label}"
                );
                if let Some(perm) = node.ordering() {
                    let sorted = rows.windows(2).all(|w| perm.key(&w[0]) < perm.key(&w[1]));
                    assert!(sorted, "{label} is not in its claimed {perm} order");
                }
                // Concatenated morsel cursors are the whole cursor.
                if let Some(morsels) = executor.morsel_cursors(node, 3, &mut stats).unwrap() {
                    let glued: Vec<Triple> = morsels
                        .into_iter()
                        .flat_map(|morsel| drain(morsel, &mut stats))
                        .collect();
                    assert_eq!(glued, rows, "morsels diverge at {label}");
                }
            }
            // The root against the reference: the naive result sorted by the
            // delivered order's key and cut at the bound; an unordered limit
            // may be any subset of that size.
            let result = executor.materialize(&plan.root, &mut stats).unwrap();
            let bound = topk.or(limit).unwrap_or(usize::MAX);
            if let Some(perm) = plan.root.ordering() {
                let mut want = naive.as_slice().to_vec();
                want.sort_unstable_by_key(|t| perm.key(t));
                want.truncate(bound);
                assert_eq!(result, want.into_iter().collect(), "{}", plan.explain());
            } else {
                assert_eq!(result.len(), naive.len().min(bound), "{}", plan.explain());
                assert!(
                    result.iter().all(|t| naive.contains(t)),
                    "{}",
                    plan.explain()
                );
            }
            // A stream resumed after its i-th key is the rest of the
            // unlimited ordered stream, one page of it under a limit (a
            // zero-row page plans to `Empty` and has nothing to resume).
            let (Some(order), None, false) = (order, topk, limit == Some(0)) else {
                continue;
            };
            let unlimited = planner(&engine, (Some(order), None, None));
            let all = drain_stream(engine.stream(unlimited, store).unwrap());
            for i in [0, all.len() / 2].into_iter().filter(|&i| i < all.len()) {
                let after = order.key(&all[i]);
                let resumed = engine.stream_after(plan.clone(), store, order, after);
                let page = limit.unwrap_or(usize::MAX).min(all.len() - i - 1);
                let want = &all[i + 1..][..page];
                assert_eq!(drain_stream(resumed.unwrap()), want, "{}", plan.explain());
            }
        }
        (operators, stats.parallel_morsels)
    }

    fn check_expr(store: &Triplestore, expr: &Expr, knobs: Knobs) -> (BTreeSet<String>, u64) {
        let naive = NaiveEngine::new().run(expr, store).unwrap();
        let planner = |engine: &SmartEngine, (order, limit, topk): Knobs| {
            engine.plan_query(expr, store, limit, order, topk).unwrap()
        };
        check(store, &naive, &planner, knobs)
    }

    #[test]
    fn the_corpus_reaches_every_operator_through_both_walks() {
        let mut b = TriplestoreBuilder::new();
        for (s, p, o) in [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("c", "q", "a"),
            ("p", "part_of", "q"),
        ] {
            b.add_triple("E", s, p, o);
        }
        let store = b.finish();
        let hop = |l: Expr, r: Expr| {
            l.join(
                r,
                output(Pos::L1, Pos::L2, Pos::R3),
                Conditions::new().obj_eq(Pos::L3, Pos::R1),
            )
        };
        let mut corpus = expression_zoo();
        corpus.extend([
            // Unordered join outputs on both sides: a hash join.
            hop(queries::example2("E"), queries::reach_down("E")),
            // An unordered outer against a stored relation: an index probe.
            hop(queries::example2("E"), Expr::rel("E")),
            // A selection no scan can absorb: a filter.
            queries::example2("E").select(Conditions::new().obj_neq(Pos::L1, Pos::L3)),
            Expr::rel("E").intersect(queries::reach_forward("E")),
        ]);
        let knobs = [
            (None, None, None),
            (Some(Permutation::Pos), None, None),
            (Some(Permutation::Osp), Some(2), None),
            (None, Some(2), None),
            (Some(Permutation::Pos), None, Some(2)),
        ];
        let (mut operators, mut morsels) = (BTreeSet::new(), 0);
        for (expr, knobs) in corpus.iter().flat_map(|e| knobs.map(|k| (e, k))) {
            let (ran, fanned) = check_expr(&store, expr, knobs);
            operators.extend(ran);
            morsels += fanned;
        }
        // The NFA strategy of a path query, against its TriAL lowering.
        let path = trial_parser::parse_path("p+/q").unwrap();
        let naive = NaiveEngine::new()
            .run(&crate::rpq::lower(&path, "E"), &store)
            .unwrap();
        let planner = |engine: &SmartEngine, (order, limit, topk): Knobs| {
            engine
                .plan_path_query(&path, "E", &store, None, limit, order, topk)
                .unwrap()
        };
        for knobs in knobs {
            operators.extend(check(&store, &naive, &planner, knobs).0);
        }
        let all = "Complement Diff Empty Filter HashJoin IndexNestedLoopJoin IndexScan Intersect \
                   Limit Memo MergeJoin NestedLoopJoin PathNfa Sort StarReach StarSemiNaive TopK \
                   Union Universe";
        let all: BTreeSet<String> = all.split(' ').map(str::to_owned).collect();
        assert_eq!(operators, all);
        assert!(morsels > 0, "the parallel paths never ran");
    }

    fn arb_store() -> impl Strategy<Value = Triplestore> {
        (
            3u32..8,
            prop::collection::vec((0u32..8, 0u32..8, 0u32..8), 1..30),
        )
            .prop_map(|(n, triples)| {
                let mut b = TriplestoreBuilder::new();
                for i in 0..n {
                    b.object_with_value(format!("o{i}"), trial_core::Value::int((i % 3) as i64));
                }
                b.relation("E");
                for (s, p, o) in triples {
                    b.add_triple(
                        "E",
                        format!("o{}", s % n),
                        format!("o{}", p % n),
                        format!("o{}", o % n),
                    );
                }
                b.finish()
            })
    }

    fn arb_pos() -> impl Strategy<Value = Pos> {
        prop::sample::select(Pos::ALL.to_vec())
    }

    fn arb_expr() -> impl Strategy<Value = Expr> {
        let leaf = prop_oneof![Just(Expr::rel("E")), Just(Expr::Empty)];
        leaf.prop_recursive(3, 10, 2, |inner| {
            prop_oneof![
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.union(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.minus(b)),
                (inner.clone(), inner.clone()).prop_map(|(a, b)| a.intersect(b)),
                inner.clone().prop_map(|a| a.complement()),
                (
                    inner.clone(),
                    inner.clone(),
                    (arb_pos(), arb_pos(), arb_pos()),
                    (arb_pos(), arb_pos()),
                )
                    .prop_map(|(a, b, (i, j, k), (x, y))| a.join(
                        b,
                        output(i, j, k),
                        Conditions::new().obj_eq(x, y.mirrored())
                    )),
                // Stars: reach-shaped (plain, same-label) and general, in
                // both directions.
                (inner.clone(), 0u32..4).prop_map(|(a, shape)| {
                    let hop = Conditions::new().obj_eq(Pos::L3, Pos::R1);
                    match shape {
                        0 => a.right_star(output(Pos::L1, Pos::L2, Pos::R3), hop),
                        1 => a.right_star(
                            output(Pos::L1, Pos::L2, Pos::R3),
                            hop.obj_eq(Pos::L2, Pos::R2),
                        ),
                        2 => a.right_star(output(Pos::L1, Pos::L2, Pos::R2), hop),
                        _ => a.left_star(output(Pos::L1, Pos::L2, Pos::R2), hop),
                    }
                }),
                inner
                    .clone()
                    .prop_map(|a| a.select(Conditions::new().data_eq(Pos::L1, Pos::L3))),
                (inner.clone(), any::<bool>()).prop_map(|(a, known)| {
                    let name = if known { "o1" } else { "zzz" };
                    a.select(Conditions::new().obj_eq_const(Pos::L2, name))
                }),
            ]
        })
    }

    fn arb_knobs() -> impl Strategy<Value = Knobs> {
        let order = prop::sample::select(vec![
            None,
            Some(Permutation::Spo),
            Some(Permutation::Pos),
            Some(Permutation::Osp),
        ]);
        (order, 0u32..3, 0usize..6).prop_map(|(order, kind, k)| match kind {
            0 => (order, None, None),
            1 => (order, Some(k), None),
            _ => (order, None, Some(k)),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn the_walks_agree_on_random_queries(
            store in arb_store(),
            expr in arb_expr(),
            knobs in arb_knobs(),
        ) {
            check_expr(&store, &expr, knobs);
        }

        /// On a reach-shaped star the generic fixpoint and the Proposition 5
        /// procedures are interchangeable.
        #[test]
        fn semi_naive_and_reach_stars_agree(store in arb_store(), base in arb_expr()) {
            let base = NaiveEngine::new().run(&base, &store).unwrap();
            let cancel = crate::CancelToken::none();
            let hop = Conditions::new().obj_eq(Pos::L3, Pos::R1);
            let mut stats = EvalStats::new();
            let plain = crate::reach::reach_star(&base, false, 1, &cancel, &mut stats);
            let same_label = crate::reach::reach_star(&base, true, 1, &cancel, &mut stats);
            for threads in [1, 2, 4] {
                let options = engine(threads).options;
                for (cond, reach) in [
                    (hop.clone(), &plain),
                    (hop.clone().obj_eq(Pos::L2, Pos::R2), &same_label),
                ] {
                    let star = semi_naive_star(
                        &base,
                        &output(Pos::L1, Pos::L2, Pos::R3),
                        &cond,
                        StarDirection::Right,
                        &store,
                        &options,
                        &mut stats,
                    );
                    prop_assert_eq!(&star.unwrap(), reach, "threads={}", threads);
                }
            }
        }
    }
}
