//! The plan executor: one walk over a [`PlanNode`] tree.
//!
//! This is the only evaluation path of the [`crate::SmartEngine`] — the
//! logical `Expr` tree is consumed by the planner and never inspected here.
//! The executor owns the per-query memo slots and threads the shared
//! [`EvalStats`] counters through every physical operator.
//!
//! Every operator compiles to a pull-based [`Cursor`](crate::cursor::Cursor)
//! (`Executor::cursor`): work happens as rows are pulled and stops the
//! moment the consumer stops (a satisfied [`PlanNode::Limit`], a closed
//! connection). A `ScanAccess` says which part of an index scan's run the
//! pipeline reads — all of it, the rows after a key (resumable pagination)
//! or one morsel (the exchange fan-out) — and only the scan interprets it.
//!
//! **Breakers own their set work.** A pipeline breaker (a hash-join build
//! side, a nested-loop, difference or intersection right side, a complement
//! input, a star base, a memo slot, a sort) fills its blocking input when
//! its cursor is built, through `Executor::materialize`. That computes a
//! set directly only where the set work is a breaker's own: an index scan's
//! stored run (zero-copy, or copied, with a residual filter that fans out),
//! a memo slot, and the closures — semi-naive rounds and the per-source
//! closures of `StarReach` and `PathNfa`, which fan out. Every other node is
//! materialised by draining its own cursor, and so is a full result
//! ([`crate::SmartEngine::execute`]).

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
use std::sync::Arc;
use std::time::Instant;
use trial_core::{
    Conditions, Error, ObjectId, OutputSpec, Permutation, Pos, RangeCursor, Result, StarDirection,
    TripleSet, Triplestore,
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

/// A compiled pipeline, or `None` when the node cannot serve the access it
/// was compiled for (see [`ScanAccess::Morsel`]).
type Compiled<'a> = Result<Option<BoxCursor<'a>>>;

/// Interprets plan trees; one instance per top-level evaluation.
pub(crate) struct Executor<'a> {
    store: &'a Triplestore,
    options: EvalOptions,
    /// One slot per [`PlanNode::Memo`]: the shared sub-result, once the
    /// first memo node of the slot has computed it.
    memo: Vec<Option<Arc<TripleSet>>>,
    /// Per-node wall timers and row counts: every pull timed for an
    /// analyzed run, one in [`EvalOptions::profile_sample`] when that is
    /// positive, absent otherwise.
    profiler: Option<Profiler>,
}

impl<'a> Executor<'a> {
    /// Creates an executor with one empty memo slot per [`PlanNode::Memo`]
    /// in the plan. `analyze` turns on the `EXPLAIN ANALYZE` bookkeeping:
    /// the wall-clock profiler counts every node's rows and times every pull
    /// instead of one in [`EvalOptions::profile_sample`].
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
            memo: vec![None; plan.memo_slots],
            profiler: (stride > 0).then(|| Profiler::new(stride)),
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

    /// The cursor walk: `node` as a pull-based pipeline reading the part of
    /// its scan selected by `access`, or `None` when `access` is a morsel
    /// the node cannot serve. A seek needs `node` ordered under the seek
    /// permutation. With the profiler active every compiled operator is
    /// wrapped in a [`ProfiledCursor`] shim, its construction counts toward
    /// its elapsed time, and pipeline breakers also report that blocking
    /// work as build time.
    pub(crate) fn cursor_at(
        &mut self,
        node: &PlanNode,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let Some(profiler) = self.profiler.clone() else {
            return self.cursor_inner(node, access, stats);
        };
        let start = Instant::now();
        let Some(inner) = self.cursor_inner(node, access, stats)? else {
            return Ok(None);
        };
        let timer = profiler.timer(node_key(node));
        let built = start.elapsed();
        timer.add_full(built);
        if records_build_time(node) {
            timer.add_build(built);
        }
        Ok(Some(Box::new(ProfiledCursor::new(
            inner,
            timer,
            profiler.stride(),
        ))))
    }

    /// Dispatches `node` to the function that compiles it. Every arm is one
    /// call: a deep plan recurses through this frame once per level, so it
    /// holds no arm's locals.
    fn cursor_inner(
        &mut self,
        node: &PlanNode,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        match (node, access) {
            (
                PlanNode::IndexScan {
                    relation,
                    bound,
                    residual,
                    order,
                    ..
                },
                _,
            ) => self.scan_cursor(relation, *bound, residual, *order, access),
            // Filters distribute over any access to their input.
            (PlanNode::Filter { input, cond, .. }, _) => {
                self.filter_cursor(input, cond, access, stats)
            }
            // A limit passes a seek through (the countdown restarts fresh
            // for the resumed page) but not a morsel: per-morsel countdowns
            // would not concatenate to the whole stream's.
            (PlanNode::Limit { input, limit, .. }, ScanAccess::Whole | ScanAccess::After(..)) => {
                self.limit_cursor(input, *limit, access, stats)
            }
            // No other operator can hand a partial access down to a scan.
            // Only contiguous ranges of one permutation run are morsels...
            (_, ScanAccess::Morsel { .. }) => Ok(None),
            // ...and a seek degrades to dropping the already-served prefix:
            // correct for any ordered root, linear in the rows skipped.
            (_, ScanAccess::After(order, after)) => self.skip_cursor(node, order, after, stats),
            (PlanNode::Universe { .. }, ScanAccess::Whole) => self.universe_cursor(),
            (PlanNode::Empty, ScanAccess::Whole) => Ok(Some(Box::new(EmptyCursor))),
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
            ) => self.hash_join_cursor(left, right, output, cond, keys, stats),
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
            ) => self.merge_join_cursor(left, right, output, cond, *key, stats),
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
            ) => self.index_join_cursor(outer, relation, *probe, output, cond, stats),
            (
                PlanNode::NestedLoopJoin {
                    left,
                    right,
                    output,
                    cond,
                    ..
                },
                ScanAccess::Whole,
            ) => self.nested_loop_cursor(left, right, output, cond, stats),
            (PlanNode::Union { left, right, .. }, ScanAccess::Whole) => {
                self.union_cursor(left, right, stats)
            }
            (PlanNode::Diff { left, right, .. }, ScanAccess::Whole) => {
                self.diff_cursor(left, right, stats)
            }
            (PlanNode::Intersect { left, right, .. }, ScanAccess::Whole) => {
                self.intersect_cursor(left, right, stats)
            }
            (PlanNode::Complement { input, .. }, ScanAccess::Whole) => {
                self.complement_cursor(input, stats)
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
            ) => self.semi_naive_cursor(input, output, cond, *direction, stats),
            (
                PlanNode::StarReach {
                    input, same_label, ..
                },
                ScanAccess::Whole,
            ) => self.reach_cursor(input, *same_label, stats),
            (
                PlanNode::PathNfa {
                    relation,
                    path,
                    max_hops,
                    ..
                },
                ScanAccess::Whole,
            ) => self.path_cursor(relation, path, *max_hops),
            (PlanNode::Memo { slot, input }, ScanAccess::Whole) => {
                self.memo_cursor(*slot, input, stats)
            }
            (PlanNode::Sort { input, order, .. }, ScanAccess::Whole) => {
                self.sort_cursor(input, *order, stats)
            }
            (
                PlanNode::TopK {
                    input, k, order, ..
                },
                ScanAccess::Whole,
            ) => self.topk_cursor(input, *k, *order, stats),
        }
    }

    /// An index scan's run, or the part of it `access` selects, with any
    /// residual filter applied as it streams.
    fn scan_cursor(
        &self,
        relation: &str,
        bound: Option<(usize, ObjectId)>,
        residual: &Conditions,
        order: Permutation,
        access: ScanAccess,
    ) -> Compiled<'a> {
        let (base, index) = self
            .store
            .relation_with_index(relation)
            .ok_or_else(|| Error::UnknownRelation(relation.to_owned()))?;
        let mut run = match bound {
            None => index.scan_cursor(base, order),
            Some((component, value)) => index.matching_cursor(base, component, value),
        };
        match access {
            ScanAccess::Whole => {}
            // `O(log n)` on the permutation run.
            ScanAccess::After(order, after) => run.seek(order, after),
            // Contiguous, disjoint, non-empty sub-ranges of the run.
            ScanAccess::Morsel { index, of } => match parallel::chunk(run.rest(), of).get(index) {
                Some(morsel) => run = RangeCursor::new(morsel),
                None => return Ok(None),
            },
        }
        let residual =
            (!residual.is_empty()).then(|| CompiledConditions::compile(residual, self.store));
        Ok(Some(Box::new(ScanCursor {
            // Mirror `index_scan`'s instrumentation: plain relation
            // passthroughs are free, indexed runs and filtered scans count
            // their rows.
            instrument: bound.is_some() || residual.is_some(),
            run,
            residual,
            store: self.store,
        })))
    }

    fn skip_cursor(
        &mut self,
        node: &PlanNode,
        order: Permutation,
        after: [ObjectId; 3],
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let Some(input) = self.cursor_inner(node, ScanAccess::Whole, stats)? else {
            return Ok(None);
        };
        Ok(Some(Box::new(SkipCursor {
            input,
            order,
            after,
            skipping: true,
        })))
    }

    fn universe_cursor(&self) -> Compiled<'a> {
        let adom = ops::universe_domain(self.store, &self.options)?;
        Ok(Some(Box::new(UniverseCursor::new(adom))))
    }

    fn filter_cursor(
        &mut self,
        input: &PlanNode,
        cond: &Conditions,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let Some(input) = self.cursor_at(input, access, stats)? else {
            return Ok(None);
        };
        Ok(Some(Box::new(FilterCursor {
            input,
            cond: CompiledConditions::compile(cond, self.store),
            store: self.store,
        })))
    }

    fn limit_cursor(
        &mut self,
        input: &PlanNode,
        limit: usize,
        access: ScanAccess,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        if limit == 0 {
            return Ok(Some(Box::new(EmptyCursor)));
        }
        // A stream sorted under *any* permutation key is strictly
        // increasing in a total order, hence duplicate-free: the countdown
        // needs no seen-set.
        let seen = input
            .ordering()
            .is_none()
            .then(std::collections::HashSet::new);
        let Some(input) = self.cursor_at(input, access, stats)? else {
            return Ok(None);
        };
        Ok(Some(Box::new(LimitCursor {
            input,
            remaining: limit,
            seen,
        })))
    }

    /// Build side: the one genuine materialisation of a hash join. The build
    /// itself shards across workers when large; the probe side stays a
    /// sequential pull-based stream (its consumer may stop at any triple).
    fn hash_join_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        output: &OutputSpec,
        cond: &Conditions,
        keys: &[(Pos, Pos)],
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
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
        Ok(Some(Box::new(HashJoinCursor {
            probe,
            seen: Distinct::new(left_used),
            table,
            output: *output,
            cond,
            store: self.store,
            buf: Vec::new(),
            buf_pos: 0,
        })))
    }

    /// Both inputs stream pre-sorted on the join-key component (the planner
    /// guarantees it); the join is a synchronized pass with no build side
    /// and no hash table.
    fn merge_join_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        output: &OutputSpec,
        cond: &Conditions,
        key: (Pos, Pos),
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let l = self.cursor(left, stats)?;
        let r = self.cursor(right, stats)?;
        stats.joins_executed += 1;
        let cond = CompiledConditions::compile(cond, self.store);
        let [left_used, right_used] = used_positions(output, &cond);
        Ok(Some(Box::new(MergeJoinCursor {
            left: l,
            right: r,
            lc: key.0.component_index(),
            rc: key.1.component_index(),
            output: *output,
            cond,
            store: self.store,
            emit_once: *output == OutputSpec::IDENTITY,
            l_cur: None,
            group: Vec::new(),
            group_key: None,
            left_seen: Distinct::new(left_used),
            right_seen: Distinct::new(right_used),
            group_pos: 0,
            r_peek: None,
            primed: false,
        })))
    }

    fn index_join_cursor(
        &mut self,
        outer: &PlanNode,
        relation: &str,
        probe: (Pos, Pos),
        output: &OutputSpec,
        cond: &Conditions,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let (base, index) = self
            .store
            .relation_with_index(relation)
            .ok_or_else(|| Error::UnknownRelation(relation.to_owned()))?;
        let outer = self.cursor(outer, stats)?;
        stats.joins_executed += 1;
        let cond = CompiledConditions::compile(cond, self.store);
        let [outer_used, _] = used_positions(output, &cond);
        Ok(Some(Box::new(IndexJoinCursor {
            outer,
            seen: Distinct::new(outer_used),
            base,
            index,
            probe,
            output: *output,
            cond,
            store: self.store,
            current: None,
            run: &[],
            run_pos: 0,
        })))
    }

    fn nested_loop_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        output: &OutputSpec,
        cond: &Conditions,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let right = self.materialize(right, stats)?;
        let left = self.cursor(left, stats)?;
        stats.joins_executed += 1;
        Ok(Some(Box::new(NestedLoopCursor {
            left,
            right,
            output: *output,
            cond: CompiledConditions::compile(cond, self.store),
            store: self.store,
            current: None,
            r_pos: 0,
        })))
    }

    /// Merges whenever the two sides share *any* sort order (not just the
    /// canonical one), so ordered deliveries survive unions; concatenates
    /// otherwise.
    fn union_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let l = self.cursor(left, stats)?;
        let r = self.cursor(right, stats)?;
        let shared = left.ordering().filter(|p| right.ordering() == Some(*p));
        Ok(Some(match shared {
            Some(perm) => Box::new(MergeUnionCursor {
                left: l,
                right: r,
                perm,
                l_peek: None,
                r_peek: None,
                primed: false,
            }),
            None => Box::new(ChainUnionCursor {
                left: l,
                right: r,
                on_right: false,
            }),
        }))
    }

    fn diff_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let rhs = self.materialize(right, stats)?;
        let input = self.cursor(left, stats)?;
        Ok(Some(Box::new(DiffCursor { input, rhs })))
    }

    fn intersect_cursor(
        &mut self,
        left: &PlanNode,
        right: &PlanNode,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let rhs = self.materialize(right, stats)?;
        let input = self.cursor(left, stats)?;
        Ok(Some(Box::new(IntersectCursor { input, rhs })))
    }

    fn complement_cursor(&mut self, input: &PlanNode, stats: &mut EvalStats) -> Compiled<'a> {
        let exclude = self.materialize(input, stats)?;
        let adom = ops::universe_domain(self.store, &self.options)?;
        Ok(Some(Box::new(ComplementCursor {
            universe: UniverseCursor::new(adom),
            exclude,
        })))
    }

    /// The generic fixpoint runs to convergence before the first row.
    fn semi_naive_cursor(
        &mut self,
        input: &PlanNode,
        output: &OutputSpec,
        cond: &Conditions,
        direction: StarDirection,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let base = self.materialize(input, stats)?;
        let store = self.store;
        let result = semi_naive_star(&base, output, cond, direction, store, &self.options, stats)?;
        Ok(Some(Box::new(SetCursor::new(result))))
    }

    /// A Proposition 5 closure streams source by source, in SPO order: only
    /// its base is materialised up front.
    fn reach_cursor(
        &mut self,
        input: &PlanNode,
        same_label: bool,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let base = self.materialize(input, stats)?;
        let cancel = self.options.cancel.clone();
        Ok(Some(Box::new(reach::reach_cursor(
            base, same_label, cancel,
        ))))
    }

    /// An NFA path walk streams root by root, from a product graph built
    /// here.
    fn path_cursor(
        &self,
        relation: &str,
        path: &trial_parser::PathExpr,
        max_hops: Option<usize>,
    ) -> Compiled<'a> {
        let cancel = self.options.cancel.clone();
        let walk = rpq::path_cursor(self.store, relation, path, max_hops, cancel)?;
        Ok(Some(Box::new(walk)))
    }

    fn memo_cursor(
        &mut self,
        slot: usize,
        input: &PlanNode,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let set = self.memo_slot(slot, input, stats)?;
        Ok(Some(Box::new(ArcSetCursor { set, pos: 0 })))
    }

    /// The order breaker: materialise the input, then re-emit it in the
    /// requested permutation's key order.
    fn sort_cursor(
        &mut self,
        input: &PlanNode,
        order: Permutation,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        let set = self.materialize(input, stats)?;
        if order == Permutation::Spo {
            return Ok(Some(Box::new(SetCursor::new(set))));
        }
        let mut rows = set.into_vec();
        rows.sort_unstable_by_key(|t| order.key(t));
        Ok(Some(Box::new(RowsCursor { rows, pos: 0 })))
    }

    fn topk_cursor(
        &mut self,
        input: &PlanNode,
        k: usize,
        order: Permutation,
        stats: &mut EvalStats,
    ) -> Compiled<'a> {
        if k == 0 {
            return Ok(Some(Box::new(EmptyCursor)));
        }
        let input = self.cursor(input, stats)?;
        Ok(Some(Box::new(TopKCursor {
            input,
            k,
            order,
            out: Vec::new(),
            pos: 0,
            drained: false,
            cancel: self.options.cancel.checker(),
        })))
    }

    /// Resolves a memo slot: the shared sub-result, computed from `input`
    /// by the first memo node of the slot that runs.
    fn memo_slot(
        &mut self,
        slot: usize,
        input: &PlanNode,
        stats: &mut EvalStats,
    ) -> Result<Arc<TripleSet>> {
        if let Some(cached) = &self.memo[slot] {
            stats.memo_hits += 1;
            return Ok(Arc::clone(cached));
        }
        let set = Arc::new(self.materialize(input, stats)?);
        self.memo[slot] = Some(Arc::clone(&set));
        Ok(set)
    }

    /// `node`'s full output as a [`TripleSet`]: how a breaker fills its
    /// blocking input and how an unbounded evaluation collects its result.
    ///
    /// Index scans, memo slots and closures compute their sets directly (the
    /// filtered scan, the semi-naive rounds and the per-source closures fan
    /// out across workers); every other node drains its cursor. A sort is
    /// the identity on sets and passes straight through.
    pub(crate) fn materialize(
        &mut self,
        node: &PlanNode,
        stats: &mut EvalStats,
    ) -> Result<TripleSet> {
        // Per-node checkpoint: every breaker input, fixpoint base and memo
        // fill passes through here, so a latched token stops the evaluation
        // at the next node boundary — and discards any partial morsel output
        // a cancelled `run_tasks` fan-out may have produced.
        self.options.cancel.check()?;
        let start = self.profiler.is_some().then(Instant::now);
        let result = match node {
            PlanNode::IndexScan {
                relation,
                bound,
                residual,
                ..
            } => self.index_scan(relation, *bound, residual, stats)?,
            PlanNode::Memo { slot, input } => (*self.memo_slot(*slot, input, stats)?).clone(),
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
                )?
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
            } => self.path_nfa(relation, path, *max_hops, stats)?,
            PlanNode::Sort { input, .. } => self.materialize(input, stats)?,
            // The node's profiling shim counts and times the drain.
            _ => return self.drain(node, stats),
        };
        // Re-check on the way out: a morsel fan-out cancelled mid-node
        // delivers a truncated set, which must surface as the error, not as
        // this node's result.
        self.options.cancel.check()?;
        if let (Some(profiler), Some(start)) = (&self.profiler, start) {
            // Inclusive wall time: a parent's measurement covers its
            // children (mirroring the cursor shim's semantics).
            let timer = profiler.timer(node_key(node));
            timer.add_full(start.elapsed());
            timer.add_rows(result.len() as u64);
        }
        Ok(result)
    }

    /// Drains `node`'s cursor into a set, with evaluation stopping at a
    /// limit or top-k boundary inside it. The loop is a cancellation
    /// checkpoint: the pipeline can be long-running and this is its only
    /// pull site. Cursors are infallible, so a cancelled pipeline just ends
    /// early, and the latch surfaces as the error before the truncated
    /// drain can pass for a complete result.
    fn drain(&mut self, node: &PlanNode, stats: &mut EvalStats) -> Result<TripleSet> {
        let mut cursor = self.cursor(node, stats)?;
        // Seed capacity from the estimate, capped so a wild estimate cannot
        // over-allocate.
        let mut out = Vec::with_capacity(node.est().min(1 << 16));
        let mut checker = self.options.cancel.checker();
        while let Some(t) = cursor.next(stats) {
            if checker.should_stop() {
                break;
            }
            out.push(t);
        }
        self.options.cancel.check()?;
        Ok(if node.ordered() {
            TripleSet::from_sorted_vec(out)
        } else {
            TripleSet::from_vec(out)
        })
    }

    /// Scans a relation, serving a pushed-down constant binding from the
    /// matching permutation index. A residual filter is [`ops::select`] on
    /// the scanned run.
    fn index_scan(
        &self,
        relation: &str,
        bound: Option<(usize, ObjectId)>,
        residual: &Conditions,
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
    fn star_reach(&self, base: &TripleSet, same_label: bool, stats: &mut EvalStats) -> TripleSet {
        // One BFS per `(x, ℓ)` source: the base size bounds the number of
        // sources, which is what the morsel fan-out partitions.
        let degree = self.options.degree(base.len());
        reach::reach_star(base, same_label, degree, &self.options.cancel, stats)
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
    //! The properties the cursor walk and the sets `materialize` computes
    //! directly are held to, over a fixed corpus that reaches every operator and over random stores ×
    //! expressions × bounds, each at threads 1/2/4 with the morsel threshold
    //! off.

    use super::*;
    use crate::planner::tests::expression_zoo;
    use crate::{Engine, NaiveEngine, QueryStream, SmartEngine};
    use proptest::prelude::*;
    use std::collections::BTreeSet;
    use trial_core::builder::queries;
    use trial_core::{output, Expr, Triple, TriplestoreBuilder};

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
