//! Pull-based streaming operators: the executor's one walk.
//!
//! Each physical operator is compiled into a [`Cursor`] that yields one
//! [`Triple`] per [`Cursor::next`] call and performs work only when pulled,
//! so a `LIMIT 10` over a million-triple join pays for ten rows, not the
//! whole join. Stopping early (a satisfied limit, a closed connection)
//! abandons the remaining work for free, and a full result is the root
//! cursor drained into a [`TripleSet`].
//!
//! # Pipeline breakers
//!
//! Not every operator can stream. The executor materialises exactly the
//! inputs that are consumed out of order ([`crate::plan::PlanNode::pipelined`]
//! is `false` on the operators that own one):
//!
//! * **hash-join build sides** — the probe side then streams;
//! * **nested-loop and difference/intersection right sides** — membership
//!   probes need the whole set;
//! * **complement inputs** — the complement then *streams* the universe,
//!   skipping members, without materialising `adom³`;
//! * **star inputs** — a generic Kleene closure is not known until its
//!   fixpoint converges; a Proposition 5 star needs its whole base, but then
//!   streams its closure one source at a time (`SourceCursor`);
//! * **memo slots** — a shared sub-result must exist to be shared.
//!
//! Everything else — scans, selections, unions (merging when both inputs are
//! in canonical order, concatenating otherwise), index nested-loop joins and
//! hash-join probes, limits — streams.
//!
//! # Order and distinctness
//!
//! A cursor whose plan node is [`ordered`](crate::plan::PlanNode::ordered)
//! yields strictly increasing canonical-order triples and is therefore
//! duplicate-free. Unordered cursors may emit duplicates (joins project,
//! concatenating unions overlap); duplicates are resolved at the next
//! materialisation point, by `LimitCursor`s (which count *distinct*
//! triples), or by the final [`QueryStream`] / result-set assembly.

use crate::compile::{project, CompiledConditions};
use crate::engine::EvalStats;
use crate::ops::{Distinct, JoinTable};
use crate::plan::{Plan, PlanNode};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;
use trial_core::{
    ObjectId, OutputSpec, Permutation, Pos, RangeCursor, RelationIndex, Triple, TripleSet,
    Triplestore,
};

/// A pull-based operator: yields one output triple per call, or `None` once
/// exhausted. Work counters accrue on the shared [`EvalStats`] exactly when
/// the work happens, so a partially-drained pipeline reports partial work.
pub trait Cursor {
    /// The next output triple, or `None` when the operator is exhausted.
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple>;
}

/// The boxed form every composite cursor holds its children in. The `Send`
/// bound is what lets a compiled pipeline migrate onto an exchange producer
/// thread ([`QueryStream::channel`]) — cursors only ever hold shared borrows
/// of the store plus owned state, so every operator satisfies it naturally.
pub(crate) type BoxCursor<'a> = Box<dyn Cursor + Send + 'a>;

/// The always-empty cursor.
pub(crate) struct EmptyCursor;

impl Cursor for EmptyCursor {
    fn next(&mut self, _stats: &mut EvalStats) -> Option<Triple> {
        None
    }
}

/// The profiling shim wrapped around every compiled cursor when the
/// per-node profiler is active: counts rows pulled through the node and
/// times one in `stride` pulls (see [`crate::profile`]).
///
/// Measurements accumulate in **locals** and flush into the shared
/// [`NodeTimer`](crate::profile::NodeTimer) on exhaustion and on drop — the
/// hot path performs no atomic operations, only (sampled) clock reads.
pub(crate) struct ProfiledCursor<'a> {
    inner: BoxCursor<'a>,
    timer: Arc<crate::profile::NodeTimer>,
    stride: u32,
    tick: u32,
    local_rows: u64,
    local_ns: u64,
}

impl<'a> ProfiledCursor<'a> {
    pub(crate) fn new(
        inner: BoxCursor<'a>,
        timer: Arc<crate::profile::NodeTimer>,
        stride: u32,
    ) -> Self {
        ProfiledCursor {
            inner,
            timer,
            stride: stride.max(1),
            tick: 0,
            local_rows: 0,
            local_ns: 0,
        }
    }

    fn flush(&mut self) {
        if self.local_rows > 0 || self.tick > 0 {
            self.timer.add_rows(self.local_rows);
            self.local_rows = 0;
        }
        if self.local_ns > 0 {
            let elapsed = std::time::Duration::from_nanos(self.local_ns);
            if self.stride == 1 {
                self.timer.add_full(elapsed);
            } else {
                self.timer.add_sampled(elapsed);
            }
            self.local_ns = 0;
        }
    }
}

impl Cursor for ProfiledCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        self.tick += 1;
        let t = if self.tick >= self.stride {
            self.tick = 0;
            let start = std::time::Instant::now();
            let t = self.inner.next(stats);
            self.local_ns += start.elapsed().as_nanos() as u64;
            t
        } else {
            self.inner.next(stats)
        };
        match t {
            Some(t) => {
                self.local_rows += 1;
                Some(t)
            }
            None => {
                // Exhausted: make the measurements visible now, so profiles
                // read after a drain (but before the drop) are complete.
                self.tick = 1; // mark touched so zero-row pulls still flush
                self.flush();
                None
            }
        }
    }
}

impl Drop for ProfiledCursor<'_> {
    fn drop(&mut self) {
        self.tick = self.tick.max(1);
        self.flush();
    }
}

/// Streams a borrowed run of an index permutation (a full relation scan or a
/// bounded `matching` run), applying residual selection conditions on the
/// fly. The storage layer's [`RangeCursor`] does the iteration; this adds
/// condition checks and instrumentation.
pub(crate) struct ScanCursor<'a> {
    /// Count scanned/emitted rows — set for indexed runs and filtered scans,
    /// clear for plain relation passthroughs, mirroring the materialized
    /// interpreter's instrumentation so both modes report comparable work.
    pub(crate) instrument: bool,
    pub(crate) run: RangeCursor<'a>,
    pub(crate) residual: Option<CompiledConditions>,
    pub(crate) store: &'a Triplestore,
}

impl Cursor for ScanCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.run.next()?;
            if self.instrument {
                stats.triples_scanned += 1;
            }
            if let Some(cond) = &self.residual {
                if !cond.check_single(self.store, &t) {
                    continue;
                }
            }
            if self.instrument {
                stats.triples_emitted += 1;
            }
            return Some(t);
        }
    }
}

/// Streams an owned, already-materialised [`TripleSet`] (star fixpoints,
/// pre-computed sub-results). Always ordered.
pub(crate) struct SetCursor {
    pub(crate) set: TripleSet,
    pub(crate) pos: usize,
}

impl SetCursor {
    pub(crate) fn new(set: TripleSet) -> Self {
        SetCursor { set, pos: 0 }
    }
}

impl Cursor for SetCursor {
    fn next(&mut self, _stats: &mut EvalStats) -> Option<Triple> {
        let t = self.set.as_slice().get(self.pos).copied()?;
        self.pos += 1;
        Some(t)
    }
}

/// Streams a closure one source at a time: `refill` appends the rows of the
/// next source to the buffer (possibly none) and returns `false` once no
/// source is left. Each source's rows come sorted and the sources come in
/// order, so the stream is in SPO order when the closure's sources are.
/// The token is checked before every refill, and the cursor ends early
/// once it latches.
pub(crate) struct SourceCursor<F> {
    refill: F,
    buf: Vec<Triple>,
    pos: usize,
    cancel: crate::cancel::CancelToken,
}

impl<F> SourceCursor<F>
where
    F: FnMut(&mut Vec<Triple>, &mut EvalStats) -> bool,
{
    pub(crate) fn new(cancel: crate::cancel::CancelToken, refill: F) -> Self {
        SourceCursor {
            refill,
            buf: Vec::new(),
            pos: 0,
            cancel,
        }
    }
}

impl<F> Cursor for SourceCursor<F>
where
    F: FnMut(&mut Vec<Triple>, &mut EvalStats) -> bool,
{
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        while self.pos == self.buf.len() {
            if self.cancel.is_cancelled() {
                return None;
            }
            self.buf.clear();
            self.pos = 0;
            if !(self.refill)(&mut self.buf, stats) {
                return None;
            }
        }
        let t = self.buf[self.pos];
        self.pos += 1;
        Some(t)
    }
}

/// Streams a shared memo slot without cloning the underlying set.
pub(crate) struct ArcSetCursor {
    pub(crate) set: Arc<TripleSet>,
    pub(crate) pos: usize,
}

impl Cursor for ArcSetCursor {
    fn next(&mut self, _stats: &mut EvalStats) -> Option<Triple> {
        let t = self.set.as_slice().get(self.pos).copied()?;
        self.pos += 1;
        Some(t)
    }
}

/// Filters a child cursor by compiled (left-only) conditions. Preserves the
/// child's order.
pub(crate) struct FilterCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) cond: CompiledConditions,
    pub(crate) store: &'a Triplestore,
}

impl Cursor for FilterCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.input.next(stats)?;
            stats.triples_scanned += 1;
            if self.cond.check_single(self.store, &t) {
                stats.triples_emitted += 1;
                return Some(t);
            }
        }
    }
}

/// Merge union of two cursors sharing a sort order: yields the sorted,
/// duplicate-free union one triple at a time. Requires both inputs ordered
/// on `perm`'s key (the output then is too — permutation keys order all
/// three components, so equal keys mean equal triples and deduplicate
/// in-line).
pub(crate) struct MergeUnionCursor<'a> {
    pub(crate) left: BoxCursor<'a>,
    pub(crate) right: BoxCursor<'a>,
    pub(crate) perm: Permutation,
    pub(crate) l_peek: Option<Triple>,
    pub(crate) r_peek: Option<Triple>,
    pub(crate) primed: bool,
}

impl Cursor for MergeUnionCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        if !self.primed {
            self.l_peek = self.left.next(stats);
            self.r_peek = self.right.next(stats);
            self.primed = true;
        }
        let out = match (self.l_peek, self.r_peek) {
            (None, None) => return None,
            (Some(l), None) => {
                self.l_peek = self.left.next(stats);
                l
            }
            (None, Some(r)) => {
                self.r_peek = self.right.next(stats);
                r
            }
            (Some(l), Some(r)) => match self.perm.key(&l).cmp(&self.perm.key(&r)) {
                std::cmp::Ordering::Less => {
                    self.l_peek = self.left.next(stats);
                    l
                }
                std::cmp::Ordering::Greater => {
                    self.r_peek = self.right.next(stats);
                    r
                }
                std::cmp::Ordering::Equal => {
                    self.l_peek = self.left.next(stats);
                    self.r_peek = self.right.next(stats);
                    l
                }
            },
        };
        stats.triples_scanned += 1;
        Some(out)
    }
}

/// Concatenating union for unordered inputs: drains the left cursor, then
/// the right. May emit duplicates (resolved downstream); fully pipelined.
pub(crate) struct ChainUnionCursor<'a> {
    pub(crate) left: BoxCursor<'a>,
    pub(crate) right: BoxCursor<'a>,
    pub(crate) on_right: bool,
}

impl Cursor for ChainUnionCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        if !self.on_right {
            if let Some(t) = self.left.next(stats) {
                stats.triples_scanned += 1;
                return Some(t);
            }
            self.on_right = true;
        }
        let t = self.right.next(stats)?;
        stats.triples_scanned += 1;
        Some(t)
    }
}

/// Streams the left input, dropping triples present in the materialised
/// right set (the difference's **pipeline-breaking** side). Preserves the
/// left input's order.
pub(crate) struct DiffCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) rhs: TripleSet,
}

impl Cursor for DiffCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.input.next(stats)?;
            stats.triples_scanned += 1;
            if !self.rhs.contains(&t) {
                return Some(t);
            }
        }
    }
}

/// Streams the left input, keeping triples present in the materialised
/// right set. Preserves the left input's order.
pub(crate) struct IntersectCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) rhs: TripleSet,
}

impl Cursor for IntersectCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.input.next(stats)?;
            stats.triples_scanned += 1;
            if self.rhs.contains(&t) {
                return Some(t);
            }
        }
    }
}

/// Lazily enumerates the universal relation `U = adom³` in canonical order
/// without materialising it. The `max_universe` guard is enforced by the
/// executor at construction time, so a full drain can never exceed it.
pub(crate) struct UniverseCursor {
    pub(crate) adom: Vec<ObjectId>,
    pub(crate) i: usize,
    pub(crate) j: usize,
    pub(crate) k: usize,
}

impl UniverseCursor {
    pub(crate) fn new(adom: Vec<ObjectId>) -> Self {
        UniverseCursor {
            adom,
            i: 0,
            j: 0,
            k: 0,
        }
    }

    fn advance(&mut self) -> Option<Triple> {
        let n = self.adom.len();
        if self.i >= n {
            return None;
        }
        let t = Triple::new(self.adom[self.i], self.adom[self.j], self.adom[self.k]);
        self.k += 1;
        if self.k == n {
            self.k = 0;
            self.j += 1;
            if self.j == n {
                self.j = 0;
                self.i += 1;
            }
        }
        Some(t)
    }
}

impl Cursor for UniverseCursor {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        let t = self.advance()?;
        stats.triples_emitted += 1;
        Some(t)
    }
}

/// Streams `U − e`: the lazily-enumerated universe minus a materialised
/// input set. Ordered (the universe is) and duplicate-free.
pub(crate) struct ComplementCursor {
    pub(crate) universe: UniverseCursor,
    pub(crate) exclude: TripleSet,
}

impl Cursor for ComplementCursor {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.universe.advance()?;
            stats.triples_scanned += 1;
            if !self.exclude.contains(&t) {
                stats.triples_emitted += 1;
                return Some(t);
            }
        }
    }
}

/// Streaming probe phase of a hash join: the build side was materialised
/// into a [`JoinTable`] at construction; each pulled probe triple is looked
/// up once and its (condition-checked, projected) matches buffered. A probe
/// triple whose projection already probed is skipped (the U rule of
/// [`crate::ops`]).
pub(crate) struct HashJoinCursor<'a> {
    pub(crate) probe: BoxCursor<'a>,
    /// Projections of the probe side already looked up.
    pub(crate) seen: Distinct,
    pub(crate) table: JoinTable,
    pub(crate) output: OutputSpec,
    pub(crate) cond: CompiledConditions,
    pub(crate) store: &'a Triplestore,
    pub(crate) buf: Vec<Triple>,
    pub(crate) buf_pos: usize,
}

impl Cursor for HashJoinCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            if self.buf_pos < self.buf.len() {
                let t = self.buf[self.buf_pos];
                self.buf_pos += 1;
                return Some(t);
            }
            let l = self.probe.next(stats)?;
            stats.triples_scanned += 1;
            let partners = self.table.probe(&l);
            // A row without partners needs no seen-set entry: its repeats
            // share its key and have none either.
            if partners.is_empty() || !self.seen.first(&l) {
                continue;
            }
            self.buf.clear();
            self.buf_pos = 0;
            for r in partners {
                stats.pairs_considered += 1;
                if self.cond.check_pair(self.store, &l, r) {
                    self.buf.push(project(&l, r, &self.output));
                    stats.triples_emitted += 1;
                }
            }
        }
    }
}

/// Streaming index nested-loop join: pulls outer triples and walks the
/// matching run of the inner relation's permutation index — no build phase,
/// no buffering (the run is a borrowed slice of the store's index). An outer
/// triple whose projection already probed is skipped (the U rule of
/// [`crate::ops`]).
pub(crate) struct IndexJoinCursor<'a> {
    pub(crate) outer: BoxCursor<'a>,
    /// Projections of the outer side already probed.
    pub(crate) seen: Distinct,
    pub(crate) base: &'a TripleSet,
    pub(crate) index: &'a RelationIndex,
    pub(crate) probe: (Pos, Pos),
    pub(crate) output: OutputSpec,
    pub(crate) cond: CompiledConditions,
    pub(crate) store: &'a Triplestore,
    pub(crate) current: Option<Triple>,
    pub(crate) run: &'a [Triple],
    pub(crate) run_pos: usize,
}

impl Cursor for IndexJoinCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            if let Some(l) = self.current {
                while self.run_pos < self.run.len() {
                    let r = &self.run[self.run_pos];
                    self.run_pos += 1;
                    stats.pairs_considered += 1;
                    if self.cond.check_pair(self.store, &l, r) {
                        stats.triples_emitted += 1;
                        return Some(project(&l, r, &self.output));
                    }
                }
            }
            let l = self.outer.next(stats)?;
            stats.triples_scanned += 1;
            let value = l.0[self.probe.0.component_index()];
            let run = self
                .index
                .matching(self.base, self.probe.1.component_index(), value);
            // As in the hash probe: only rows with partners are remembered.
            if run.is_empty() || !self.seen.first(&l) {
                continue;
            }
            self.run = run;
            self.run_pos = 0;
            self.current = Some(l);
        }
    }
}

/// Streaming nested-loop join: the right side is materialised (breaker),
/// the left side streams; every pair is inspected.
pub(crate) struct NestedLoopCursor<'a> {
    pub(crate) left: BoxCursor<'a>,
    pub(crate) right: TripleSet,
    pub(crate) output: OutputSpec,
    pub(crate) cond: CompiledConditions,
    pub(crate) store: &'a Triplestore,
    pub(crate) current: Option<Triple>,
    pub(crate) r_pos: usize,
}

impl Cursor for NestedLoopCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            if let Some(l) = self.current {
                while self.r_pos < self.right.len() {
                    let r = &self.right.as_slice()[self.r_pos];
                    self.r_pos += 1;
                    stats.pairs_considered += 1;
                    if self.cond.check_pair(self.store, &l, r) {
                        stats.triples_emitted += 1;
                        return Some(project(&l, r, &self.output));
                    }
                }
            }
            let l = self.left.next(stats)?;
            self.r_pos = 0;
            self.current = Some(l);
        }
    }
}

/// Streaming sort-merge join: both inputs arrive sorted on their join-key
/// component, so the join is one synchronized forward pass — **no build
/// side, no hash table**, fully pipelined on the left input.
///
/// The only buffering is the current right-side *key group* (all right rows
/// sharing one key value), retained while consecutive left rows carry the
/// same key so duplicated left keys cross-product correctly. Memory is
/// bounded by the widest right duplicate run, not by the input size. The
/// group keeps one row per right projection, and a left row whose
/// projection already met the group is skipped (the U rule of
/// [`crate::ops`]).
pub(crate) struct MergeJoinCursor<'a> {
    pub(crate) left: BoxCursor<'a>,
    pub(crate) right: BoxCursor<'a>,
    /// 0-based component of the left / right triples carrying the join key.
    pub(crate) lc: usize,
    pub(crate) rc: usize,
    pub(crate) output: OutputSpec,
    pub(crate) cond: CompiledConditions,
    pub(crate) store: &'a Triplestore,
    /// Identity-output semijoin mode: emit each left row at most once,
    /// skipping the rest of its right group after the first surviving
    /// partner. With the identity output every partner would project to the
    /// same left row, so the skip removes duplicates — which is what lets
    /// [`crate::PlanNode::ordering`] pass the left order claim through.
    pub(crate) emit_once: bool,
    pub(crate) l_cur: Option<Triple>,
    /// Buffered right rows of the current key group, and that key.
    pub(crate) group: Vec<Triple>,
    pub(crate) group_key: Option<ObjectId>,
    /// Projections of the left rows that met the current group, and of the
    /// right rows buffered in it.
    pub(crate) left_seen: Distinct,
    pub(crate) right_seen: Distinct,
    /// Cross-product progress of `l_cur` through `group`.
    pub(crate) group_pos: usize,
    /// The first right row *beyond* the buffered group.
    pub(crate) r_peek: Option<Triple>,
    pub(crate) primed: bool,
}

impl MergeJoinCursor<'_> {
    /// Buffers the right-side key group for `key`, discarding smaller keys.
    /// Returns `false` if the right input ran out before reaching `key`.
    fn load_group(&mut self, key: ObjectId, stats: &mut EvalStats) -> bool {
        // Skip right rows below the key.
        while let Some(r) = self.r_peek {
            if r.0[self.rc] >= key {
                break;
            }
            stats.triples_scanned += 1;
            self.r_peek = self.right.next(stats);
        }
        let Some(r) = self.r_peek else {
            return false;
        };
        if r.0[self.rc] != key {
            // The right side jumped past the key; the caller advances left.
            return true;
        }
        self.group.clear();
        self.group_key = Some(key);
        self.left_seen.clear();
        self.right_seen.clear();
        while let Some(r) = self.r_peek {
            if r.0[self.rc] != key {
                break;
            }
            stats.triples_scanned += 1;
            if self.right_seen.first(&r) {
                self.group.push(r);
            }
            self.r_peek = self.right.next(stats);
        }
        true
    }
}

impl Cursor for MergeJoinCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        if !self.primed {
            self.l_cur = self.left.next(stats);
            self.r_peek = self.right.next(stats);
            self.primed = true;
        }
        loop {
            let l = self.l_cur?;
            let lk = l.0[self.lc];
            if self.group_key == Some(lk) {
                if self.group_pos == 0 && !self.left_seen.first(&l) {
                    // An earlier left row of this key run had the same
                    // projection and already met the whole group.
                    self.group_pos = self.group.len();
                }
                // Continue the cross product of the current left row with
                // the buffered right group.
                while self.group_pos < self.group.len() {
                    let r = self.group[self.group_pos];
                    self.group_pos += 1;
                    stats.pairs_considered += 1;
                    if self.cond.check_pair(self.store, &l, &r) {
                        if self.emit_once {
                            // Semijoin short-circuit: every partner projects
                            // to the same identity row, so skip the rest of
                            // the group.
                            self.group_pos = self.group.len();
                        }
                        stats.triples_emitted += 1;
                        return Some(project(&l, &r, &self.output));
                    }
                }
                // Group exhausted: next left row restarts the product (it
                // may share the key and reuse the same group).
                stats.triples_scanned += 1;
                self.l_cur = self.left.next(stats);
                self.group_pos = 0;
                continue;
            }
            if self.group_key.is_some_and(|gk| gk > lk) {
                // The buffered group is beyond this left key: no right
                // partner exists for it.
                stats.triples_scanned += 1;
                self.l_cur = self.left.next(stats);
                self.group_pos = 0;
                continue;
            }
            if !self.load_group(lk, stats) {
                // Right side exhausted: nothing further can join.
                return None;
            }
            if self.group_key != Some(lk) {
                // Right side skipped past lk (no partner); advance left.
                stats.triples_scanned += 1;
                self.l_cur = self.left.next(stats);
                self.group_pos = 0;
            }
        }
    }
}

/// Streams an owned vector of triples, already in the desired emit order —
/// the output side of sorts and top-k heaps (whose order is generally not
/// the canonical one a [`TripleSet`] could represent).
pub(crate) struct RowsCursor {
    pub(crate) rows: Vec<Triple>,
    pub(crate) pos: usize,
}

impl Cursor for RowsCursor {
    fn next(&mut self, _stats: &mut EvalStats) -> Option<Triple> {
        let t = self.rows.get(self.pos).copied()?;
        self.pos += 1;
        Some(t)
    }
}

/// The `k` smallest distinct triples of the input under a permutation key,
/// kept in a bounded ordered buffer of at most `k` keys.
///
/// The first pull drains the input completely (a top-k is unknowable
/// earlier), inserting each row's permutation key into a `BTreeSet` capped
/// at `k` entries: when full, a row beyond the current maximum is rejected
/// in O(1) peek + O(log k) otherwise, and the maximum is evicted. Keys are
/// permutations of all three components, so the set deduplicates exactly
/// and converts back to triples losslessly. Survivors then stream in key
/// order. Peak buffer size is recorded in
/// [`EvalStats::topk_buffered_peak`] — never more than `k`.
pub(crate) struct TopKCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) k: usize,
    pub(crate) order: Permutation,
    pub(crate) out: Vec<Triple>,
    pub(crate) pos: usize,
    pub(crate) drained: bool,
    /// The drain below happens inside one `next` call, so a root-level
    /// cancellation wrapper could not interrupt it: the heap build carries
    /// its own checker and abandons the drain when the token latches.
    pub(crate) cancel: crate::cancel::CancelChecker,
}

impl Cursor for TopKCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        if !self.drained {
            self.drained = true;
            let mut heap: BTreeSet<[ObjectId; 3]> = BTreeSet::new();
            while let Some(t) = self.input.next(stats) {
                if self.cancel.should_stop() {
                    return None;
                }
                stats.triples_scanned += 1;
                let key = self.order.key(&t);
                if heap.len() == self.k {
                    match heap.last() {
                        Some(max) if *max <= key => continue,
                        _ => {}
                    }
                    if heap.insert(key) {
                        heap.pop_last();
                    }
                } else {
                    heap.insert(key);
                }
                stats.topk_buffered_peak = stats.topk_buffered_peak.max(heap.len() as u64);
            }
            self.out = heap.into_iter().map(|k| self.order.from_key(k)).collect();
            stats.triples_emitted += self.out.len() as u64;
        }
        let t = self.out.get(self.pos).copied()?;
        self.pos += 1;
        Some(t)
    }
}

/// Emits at most `limit` **distinct** triples of the input, then reports
/// exhaustion without pulling further — the early-termination point.
///
/// Ordered inputs are duplicate-free by construction, so the countdown is
/// allocation-free; unordered inputs are deduplicated through a seen-set
/// (bounded by `limit` entries) so duplicates never eat into the budget.
pub(crate) struct LimitCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) remaining: usize,
    pub(crate) seen: Option<HashSet<Triple>>,
}

impl Cursor for LimitCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            if self.remaining == 0 {
                return None;
            }
            let t = self.input.next(stats)?;
            if let Some(seen) = &mut self.seen {
                if !seen.insert(t) {
                    continue;
                }
            }
            self.remaining -= 1;
            return Some(t);
        }
    }
}

/// Drops input rows while their permutation key under `order` is `<= after`,
/// then streams the rest — the linear seek fallback of resumable pagination
/// for ordered roots that cannot push the seek into the storage layer
/// (sort and top-k outputs re-emit from owned buffers). Ordered inputs are
/// strictly increasing, so once one row passes the comparison stops.
pub(crate) struct SkipCursor<'a> {
    pub(crate) input: BoxCursor<'a>,
    pub(crate) order: Permutation,
    pub(crate) after: [ObjectId; 3],
    pub(crate) skipping: bool,
}

impl Cursor for SkipCursor<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            let t = self.input.next(stats)?;
            if self.skipping {
                if self.order.key(&t) <= self.after {
                    continue;
                }
                self.skipping = false;
            }
            return Some(t);
        }
    }
}

/// The one pull loop of a [`QueryStream`] — the root pipeline's and every
/// exchange morsel pipeline's: a cursor behind a stride-amortised
/// cancellation checkpoint and, when the plan can emit duplicates, a
/// seen-set. The checkpoint sits here rather than in a wrapper cursor, so an
/// armed token costs a counter decrement per row and no extra dispatch.
///
/// Cursors are infallible, so cancellation surfaces as an early `None` —
/// exactly like a satisfied limit. The owning `Result` layer (the planner
/// entry points, the server's drain loops) re-checks the shared token after
/// the stream ends and converts the latch into
/// [`trial_core::Error::Cancelled`], so a truncated stream is never mistaken
/// for a complete result.
struct Pull<'a> {
    cursor: BoxCursor<'a>,
    seen: Option<HashSet<Triple>>,
    checker: crate::cancel::CancelChecker,
}

impl Pull<'_> {
    fn next(&mut self, stats: &mut EvalStats) -> Option<Triple> {
        loop {
            if self.checker.should_stop() {
                return None;
            }
            let t = self.cursor.next(stats)?;
            if let Some(seen) = &mut self.seen {
                if !seen.insert(t) {
                    continue;
                }
            }
            return Some(t);
        }
    }
}

/// A fully-compiled streaming query: the chosen [`Plan`], the root cursor,
/// and the work counters accumulated so far.
///
/// This is the public face of the cursor pipeline, produced by
/// [`SmartEngine::stream`](crate::SmartEngine::stream): callers pull
/// *distinct* triples one at a time with [`QueryStream::next_triple`] and may
/// stop at any point, abandoning all remaining work. The stream borrows the
/// store (cursors walk its cached permutation indexes zero-copy) but owns
/// everything else.
pub struct QueryStream<'a> {
    plan: Plan,
    pull: Pull<'a>,
    stats: EvalStats,
    /// Optional exchange fan-out: independently drainable morsel pipelines
    /// whose in-order concatenation equals the root's row sequence, plus the
    /// limit peeled off the root (morsel pipelines are limit-less — the
    /// consumer side enforces it). Only attached for ordered, morselizable
    /// roots (see `Executor::morsel_cursors`); `channel()` falls back to the
    /// single root pipeline otherwise.
    morsels: Option<(Vec<Pull<'a>>, Option<usize>)>,
    /// Read handle onto the per-node profiler, when active (see
    /// [`QueryStream::profile`]).
    profile: Option<crate::profile::QueryProfile>,
}

impl<'a> QueryStream<'a> {
    /// A stream over `root`, the compiled `plan.root`. `cancel` is consulted
    /// as the stream is pulled; `profile` is the read handle onto the
    /// per-node profiler the cursors were compiled with, if any.
    pub(crate) fn new(
        plan: Plan,
        root: BoxCursor<'a>,
        stats: EvalStats,
        profile: Option<crate::profile::QueryProfile>,
        cancel: &crate::cancel::CancelToken,
    ) -> Self {
        // Roots ordered under *any* permutation key are distinct by
        // construction (the key orders all three components), and limit /
        // top-k roots deduplicate internally; everything else needs a
        // seen-set so the stream's contract (distinct triples) holds.
        let distinct = plan.root.ordering().is_some()
            || matches!(plan.root, PlanNode::Limit { .. } | PlanNode::TopK { .. });
        QueryStream {
            pull: Pull {
                cursor: root,
                seen: (!distinct).then(HashSet::new),
                checker: cancel.checker(),
            },
            plan,
            stats,
            morsels: None,
            profile,
        }
    }

    /// Attaches exchange morsel pipelines (see the `morsels` field). Every
    /// producer checks the stream's token, so a deadline or consumer hang-up
    /// unwinds all lanes.
    pub(crate) fn with_morsels(
        mut self,
        cursors: Vec<BoxCursor<'a>>,
        limit: Option<usize>,
    ) -> Self {
        let token = self.pull.checker.token();
        let lanes = cursors.into_iter().map(|cursor| Pull {
            cursor,
            // Ordered morsels are duplicate-free.
            seen: None,
            checker: token.checker(),
        });
        self.morsels = Some((lanes.collect(), limit));
        self
    }

    /// A handle onto the stream's per-node wall-clock profiler, present when
    /// the compiling [`EvalOptions`](crate::EvalOptions) had a positive
    /// `profile_sample`. Clone it before consuming the stream (e.g. with
    /// [`QueryStream::channel`]) and read
    /// [`QueryProfile::snapshot`](crate::profile::QueryProfile::snapshot)
    /// once the stream has finished — cursors flush their measurements on
    /// exhaustion and drop.
    pub fn profile(&self) -> Option<crate::profile::QueryProfile> {
        self.profile.clone()
    }

    /// `true` when [`QueryStream::channel`] would run multiple producers —
    /// surfaced so callers can report whether a streamed response actually
    /// fanned out.
    pub fn parallelized(&self) -> bool {
        matches!(&self.morsels, Some((cursors, _)) if cursors.len() > 1)
    }

    /// The physical plan the stream executes (e.g. for `explain` output).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Work counters accumulated so far; grows as the stream is pulled.
    pub fn stats(&self) -> &EvalStats {
        &self.stats
    }

    /// The next distinct result triple, or `None` once the query is
    /// exhausted (or its limit reached).
    pub fn next_triple(&mut self) -> Option<Triple> {
        self.pull.next(&mut self.stats)
    }

    /// Drains the stream, returning only the number of distinct triples —
    /// the counting path behind count-only queries. For ordered pipelines
    /// this allocates no per-row state at all.
    pub fn count(mut self) -> (u64, EvalStats) {
        let mut n = 0u64;
        while self.next_triple().is_some() {
            n += 1;
        }
        (n, self.stats)
    }

    /// Runs the stream through a bounded **exchange**: producer threads
    /// evaluate the pipeline and pump rows into lanes of `depth` batches
    /// while `consume` pulls them back out of the exchange on the
    /// current thread — evaluation overlaps with whatever the consumer does
    /// (typically socket writes).
    ///
    /// The rows the exchange yields are exactly the rows
    /// [`QueryStream::next_triple`] would have yielded, in the same order:
    /// with attached morsel pipelines (ordered, morselizable roots under
    /// `EvalOptions::threads > 1`) one producer per morsel pumps its own
    /// lane and the consumer drains lanes in morsel order; otherwise a
    /// single producer runs the root pipeline. Returning from `consume`
    /// without draining — or dropping the exchange — disconnects the lanes
    /// and terminates every producer early, which is how a satisfied
    /// `Limit`/`TopK` (or a closed connection) stops the pipeline.
    ///
    /// Returns `consume`'s result plus the final merged work counters
    /// (exact sums across producers, with
    /// [`EvalStats::parallel_morsels`](crate::EvalStats) counting the
    /// fan-out). A panicking producer propagates after the scope joins.
    pub fn channel<R>(
        mut self,
        depth: usize,
        consume: impl FnOnce(&mut crate::parallel::Exchange) -> R,
    ) -> (R, EvalStats) {
        use std::sync::mpsc::sync_channel;
        let depth = depth.max(1);
        match self.morsels.take() {
            Some((cursors, limit)) if cursors.len() > 1 => {
                let count = cursors.len() as u64;
                let mut stats = self.stats;
                let (result, worker_stats) = std::thread::scope(|scope| {
                    let mut lanes = Vec::with_capacity(cursors.len());
                    let handles: Vec<_> = cursors
                        .into_iter()
                        .map(|mut morsel| {
                            let (tx, rx) = sync_channel(depth);
                            lanes.push(rx);
                            scope.spawn(move || {
                                let mut local = EvalStats::new();
                                crate::parallel::pump(|s| morsel.next(s), &tx, &mut local);
                                local
                            })
                        })
                        .collect();
                    let mut exchange = crate::parallel::Exchange::new(lanes, limit);
                    let result = consume(&mut exchange);
                    // Hang up before joining so blocked producers wind down.
                    drop(exchange);
                    let worker_stats: Vec<EvalStats> = handles
                        .into_iter()
                        .map(|handle| {
                            handle
                                .join()
                                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                        })
                        .collect();
                    (result, worker_stats)
                });
                for local in &worker_stats {
                    stats.merge(local);
                }
                stats.parallel_morsels += count;
                (result, stats)
            }
            _ => {
                // Single producer: the root pipeline (with its seen-set when
                // the plan needs one) moves onto one worker thread, so even
                // a sequential evaluation overlaps with the consumer.
                let QueryStream {
                    mut pull, stats, ..
                } = self;
                std::thread::scope(|scope| {
                    let (tx, rx) = sync_channel(depth);
                    let handle = scope.spawn(move || {
                        let mut local = stats;
                        crate::parallel::pump(|s| pull.next(s), &tx, &mut local);
                        local
                    });
                    let mut exchange = crate::parallel::Exchange::new(vec![rx], None);
                    let result = consume(&mut exchange);
                    drop(exchange);
                    let stats = handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    (result, stats)
                })
            }
        }
    }

    /// Drains the stream into a [`TripleSet`] (plus final counters). Like
    /// every drain, a cancelled one ends early: re-check the token before
    /// trusting the set.
    pub fn collect_set(mut self) -> (TripleSet, EvalStats) {
        let ordered = self.plan.root.ordered();
        let mut out = Vec::new();
        // A trailing `from_vec` deduplicates more cheaply than the
        // per-triple seen-set.
        self.pull.seen = None;
        while let Some(t) = self.next_triple() {
            out.push(t);
        }
        let set = if ordered {
            TripleSet::from_sorted_vec(out)
        } else {
            TripleSet::from_vec(out)
        };
        (set, self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::compile::used_positions;
    use crate::{Engine, NaiveEngine};
    use trial_core::{Conditions, Expr, TriplestoreBuilder, Value};

    /// A small xorshift generator: the stores and orders below only need to
    /// differ from seed to seed.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            (self.0 % n as u64) as usize
        }

        /// `rows` in a random order.
        fn shuffled(&mut self, rows: &[Triple]) -> Vec<Triple> {
            let mut rows = rows.to_vec();
            for i in (1..rows.len()).rev() {
                rows.swap(i, self.below(i + 1));
            }
            rows
        }
    }

    /// Up to 30 triples over six objects whose data values alternate, so
    /// subjects repeat with different predicates, objects and values.
    fn random_store(rng: &mut Rng) -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        for i in 0..6 {
            b.object_with_value(format!("o{i}"), Value::int(i % 2));
        }
        for _ in 0..30 {
            let [s, p, o] = [0; 3].map(|_| format!("o{}", rng.below(6)));
            b.add_triple("E", s, p, o);
        }
        b.finish()
    }

    /// Joins keyed on `1=1'` whose output reads only `1, 1', 3'`: every
    /// other position a side reads comes from a condition alone.
    fn joins() -> Vec<Conditions> {
        let key = || Conditions::new().obj_eq(Pos::L1, Pos::R1);
        vec![
            key(),
            key().obj_neq(Pos::L2, Pos::R2),
            key().data_eq(Pos::L3, Pos::R3),
            key().obj_eq_const(Pos::L3, "o1"),
            key().obj_neq_const(Pos::L2, "o2"),
            key().obj_neq_const(Pos::R2, "o0"),
        ]
    }

    fn drain(mut cursor: impl Cursor, stats: &mut EvalStats) -> Vec<Triple> {
        std::iter::from_fn(|| cursor.next(stats)).collect()
    }

    /// The distinct rows of `rows` in order of first occurrence.
    fn first_distinct(rows: &[Triple]) -> Vec<Triple> {
        let mut seen = HashSet::new();
        rows.iter().copied().filter(|t| seen.insert(*t)).collect()
    }

    fn rows_cursor<'a>(rows: &[Triple]) -> BoxCursor<'a> {
        Box::new(RowsCursor {
            rows: rows.to_vec(),
            pos: 0,
        })
    }

    /// Every keyed join cursor against a reference loop that probes every
    /// outer row against every matching right row, with no projection
    /// dedup: the distinct rows arrive in the same order, and as a set they
    /// are the join `NaiveEngine` computes. Each join reads a position that
    /// its output and key do not, so a mask built from those alone drops
    /// rows here.
    #[test]
    fn projection_dedup_keeps_the_first_seen_order() {
        let output = OutputSpec::new(Pos::L1, Pos::R1, Pos::R3);
        let key = (Pos::L1, Pos::R1);
        let none = CancelToken::none();
        let (mut reference_pairs, mut pairs) = (0, 0);
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let store = random_store(&mut rng);
            let (base, index) = store.relation_with_index("E").unwrap();
            let outer = rng.shuffled(base.as_slice());
            // Merge inputs: key-sorted, shuffled within each key run.
            let mut merge_left = outer.clone();
            merge_left.sort_by_key(|t| t.0[0]);
            let mut merge_right = rng.shuffled(base.as_slice());
            merge_right.sort_by_key(|t| t.0[0]);
            for c in joins() {
                let cond = CompiledConditions::compile(&c, &store);
                let [left_used, right_used] = used_positions(&output, &cond);
                let mut reference = |left: &[Triple], right_of: &dyn Fn(&Triple) -> Vec<Triple>| {
                    let mut out = Vec::new();
                    for l in left {
                        for r in right_of(l) {
                            reference_pairs += 1;
                            if cond.check_pair(&store, l, &r) {
                                out.push(project(l, &r, &output));
                            }
                        }
                    }
                    out
                };
                let by_subject = |rows: &[Triple], l: &Triple| -> Vec<Triple> {
                    rows.iter().copied().filter(|r| r.0[0] == l.0[0]).collect()
                };
                let hash_ref = reference(&outer, &|l| by_subject(base.as_slice(), l));
                let index_ref = reference(&outer, &|l| index.matching(base, 0, l.0[0]).to_vec());
                let merge_ref = reference(&merge_left, &|l| by_subject(&merge_right, l));

                let mut stats = EvalStats::new();
                let table = JoinTable::build(base, &[key], right_used, 1, &none, &mut stats);
                let hash = drain(
                    HashJoinCursor {
                        probe: rows_cursor(&outer),
                        seen: Distinct::new(left_used),
                        table,
                        output,
                        cond: cond.clone(),
                        store: &store,
                        buf: Vec::new(),
                        buf_pos: 0,
                    },
                    &mut stats,
                );
                let indexed = drain(
                    IndexJoinCursor {
                        outer: rows_cursor(&outer),
                        seen: Distinct::new(left_used),
                        base,
                        index,
                        probe: key,
                        output,
                        cond: cond.clone(),
                        store: &store,
                        current: None,
                        run: &[],
                        run_pos: 0,
                    },
                    &mut stats,
                );
                let merged = drain(
                    MergeJoinCursor {
                        left: rows_cursor(&merge_left),
                        right: rows_cursor(&merge_right),
                        lc: 0,
                        rc: 0,
                        output,
                        cond: cond.clone(),
                        store: &store,
                        emit_once: false,
                        l_cur: None,
                        group: Vec::new(),
                        group_key: None,
                        left_seen: Distinct::new(left_used),
                        right_seen: Distinct::new(right_used),
                        group_pos: 0,
                        r_peek: None,
                        primed: false,
                    },
                    &mut stats,
                );
                pairs += stats.pairs_considered;
                let case = format!("seed {seed}, conditions {c}");
                assert_eq!(
                    first_distinct(&hash),
                    first_distinct(&hash_ref),
                    "hash, {case}"
                );
                assert_eq!(
                    first_distinct(&indexed),
                    first_distinct(&index_ref),
                    "index, {case}"
                );
                assert_eq!(
                    first_distinct(&merged),
                    first_distinct(&merge_ref),
                    "merge, {case}"
                );

                // As sets, all three are the join itself.
                let join = Expr::rel("E").join(Expr::rel("E"), output, c.clone());
                let want = NaiveEngine::new().run(&join, &store).unwrap();
                for (cursor, got) in [("hash", hash), ("index", indexed), ("merge", merged)] {
                    let got: TripleSet = got.into_iter().collect();
                    assert_eq!(got, want, "{cursor} cursor, {case}");
                }
            }
        }
        // The filters did drop probes and partners.
        assert!(pairs < reference_pairs, "{pairs} vs {reference_pairs}");
    }
}
