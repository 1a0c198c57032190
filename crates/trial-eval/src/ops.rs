//! Shared physical operators: selections, joins, and the universal relation.
//!
//! Engines are assembled from the primitives in this module; they differ only
//! in *which* primitive the planner picks for a given operator and in how
//! they iterate Kleene stars. Hash joins are split into an explicit build
//! phase ([`JoinTable::build`]) and probe phase ([`hash_join_probe`]) so that
//! fixpoint iterations can hash their invariant side **once** and probe it
//! every round.

use crate::cancel::CancelToken;
use crate::compile::{project, CompiledConditions};
use crate::engine::{EvalOptions, EvalStats};
use crate::parallel;
use std::collections::HashMap;
use trial_core::{
    Error, ObjectId, OutputSpec, Pos, RelationIndex, Result, Triple, TripleSet, Triplestore,
};

/// The selection kernel over one morsel: filters `input` into `out`.
pub(crate) fn select_slice(
    input: &[Triple],
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    stats.triples_scanned += input.len() as u64;
    for t in input {
        if cond.check_single(store, t) {
            out.push(*t);
            stats.triples_emitted += 1;
        }
    }
}

/// Filters a triple set by compiled (left-only) conditions.
///
/// Filtering preserves the canonical order, so the result is assembled with
/// the zero-copy [`TripleSet::from_sorted_vec`] fast path.
pub fn select(
    input: &TripleSet,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
) -> TripleSet {
    let mut out = Vec::with_capacity(input.len());
    select_slice(input.as_slice(), cond, store, stats, &mut out);
    TripleSet::from_sorted_vec(out)
}

/// Morsel-parallel [`select`]: carves `input` into one morsel per worker and
/// filters them concurrently. Selection preserves order morsel-by-morsel and
/// the morsels are concatenated in input order, so the output is
/// byte-identical to the sequential [`select`].
pub fn select_parallel(
    input: &TripleSet,
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let tasks: Vec<_> = parallel::chunk(input.as_slice(), threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out = Vec::with_capacity(morsel.len());
                select_slice(morsel, cond, store, stats, &mut out);
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    TripleSet::from_sorted_vec(parts.concat())
}

/// The nested-loop kernel over one morsel of the left side.
pub(crate) fn nested_loop_join_slice(
    left: &[Triple],
    right: &TripleSet,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    for l in left {
        for r in right.iter() {
            stats.pairs_considered += 1;
            if cond.check_pair(store, l, r) {
                out.push(project(l, r, output));
                stats.triples_emitted += 1;
            }
        }
    }
}

/// Nested-loop join: inspects every pair of triples, exactly as in the
/// paper's Procedure 1. Cost `O(|left|·|right|)`.
pub fn nested_loop_join(
    left: &TripleSet,
    right: &TripleSet,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let mut out = Vec::with_capacity(left.len().max(right.len()));
    nested_loop_join_slice(left.as_slice(), right, output, cond, store, stats, &mut out);
    TripleSet::from_vec(out)
}

/// Morsel-parallel [`nested_loop_join`]: partitions the **left** side; every
/// worker inspects its morsel against the whole right side. Same quadratic
/// pair count as the sequential join, divided across workers.
#[allow(clippy::too_many_arguments)]
pub fn nested_loop_join_parallel(
    left: &TripleSet,
    right: &TripleSet,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let tasks: Vec<_> = parallel::chunk(left.as_slice(), threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out = Vec::with_capacity(morsel.len());
                nested_loop_join_slice(morsel, right, output, cond, store, stats, &mut out);
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    TripleSet::from_vec(parts.concat())
}

/// A hash-join key: up to three object ids, inlined so single-column keys
/// (the overwhelmingly common case — every reachability join) cost no
/// allocation per probe. Keys wider than three columns fall back to a `Vec`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum JoinKey {
    /// One key column.
    One(ObjectId),
    /// Two key columns.
    Two(ObjectId, ObjectId),
    /// Three key columns.
    Three([ObjectId; 3]),
    /// More than three key columns (degenerate: conditions can repeat).
    Wide(Vec<ObjectId>),
}

#[inline]
fn key_of(t: &Triple, components: &[usize]) -> JoinKey {
    match components {
        [a] => JoinKey::One(t.0[*a]),
        [a, b] => JoinKey::Two(t.0[*a], t.0[*b]),
        [a, b, c] => JoinKey::Three([t.0[*a], t.0[*b], t.0[*c]]),
        many => JoinKey::Wide(many.iter().map(|&i| t.0[i]).collect()),
    }
}

/// The build side of a hash join: the right input hashed on the right-hand
/// components of the cross equalities.
#[derive(Debug)]
pub struct JoinTable {
    left_components: Vec<usize>,
    table: HashMap<JoinKey, Vec<Triple>>,
}

impl JoinTable {
    /// Hashes `right` on the key columns of `keys` (the cross equalities
    /// `(left position, right position)`).
    ///
    /// # Panics
    /// Panics if `keys` is empty — key-free joins have no hashable column and
    /// must use [`nested_loop_join`].
    pub fn build(right: &TripleSet, keys: &[(Pos, Pos)], stats: &mut EvalStats) -> JoinTable {
        assert!(!keys.is_empty(), "hash join requires at least one key");
        stats.hash_tables_built += 1;
        let right_components = key_components(keys, false);
        let left_components = key_components(keys, true);
        let mut table: HashMap<JoinKey, Vec<Triple>> = HashMap::with_capacity(right.len());
        for r in right.iter() {
            stats.triples_scanned += 1;
            table
                .entry(key_of(r, &right_components))
                .or_default()
                .push(*r);
        }
        JoinTable {
            left_components,
            table,
        }
    }

    /// Morsel-parallel [`JoinTable::build`]: carves `right` into one morsel
    /// per worker, hashes each into a private shard, then merges the shards
    /// **in morsel order** on the coordinating thread.
    ///
    /// Merging in morsel order makes every per-key bucket list the exact
    /// sub-sequence of `right`'s iteration order that the sequential build
    /// produces, so probe results (and therefore streamed row order under a
    /// limit) are identical whichever build ran.
    ///
    /// # Panics
    /// Panics if `keys` is empty, like [`JoinTable::build`].
    pub fn build_parallel(
        right: &TripleSet,
        keys: &[(Pos, Pos)],
        threads: usize,
        cancel: &CancelToken,
        stats: &mut EvalStats,
    ) -> JoinTable {
        assert!(!keys.is_empty(), "hash join requires at least one key");
        stats.hash_tables_built += 1;
        let right_components = key_components(keys, false);
        let left_components = key_components(keys, true);
        let components = &right_components;
        let tasks: Vec<_> = parallel::chunk(right.as_slice(), threads)
            .into_iter()
            .map(|morsel| {
                move |stats: &mut EvalStats| {
                    let mut shard: HashMap<JoinKey, Vec<Triple>> =
                        HashMap::with_capacity(morsel.len());
                    for r in morsel {
                        stats.triples_scanned += 1;
                        shard.entry(key_of(r, components)).or_default().push(*r);
                    }
                    shard
                }
            })
            .collect();
        let shards = parallel::run_tasks(threads, tasks, cancel, stats);
        let mut table: HashMap<JoinKey, Vec<Triple>> = HashMap::with_capacity(right.len());
        for shard in shards {
            for (key, mut bucket) in shard {
                match table.entry(key) {
                    std::collections::hash_map::Entry::Vacant(slot) => {
                        slot.insert(bucket);
                    }
                    std::collections::hash_map::Entry::Occupied(mut slot) => {
                        slot.get_mut().append(&mut bucket);
                    }
                }
            }
        }
        JoinTable {
            left_components,
            table,
        }
    }

    /// Number of distinct keys in the table.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` if the build side was empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// All build-side triples whose key columns match `left`'s — one hash
    /// lookup, borrowed result. This is the probe primitive shared by the
    /// materialised [`hash_join_probe`] and the streaming
    /// [`crate::cursor::Cursor`] pipeline.
    pub fn probe(&self, left: &Triple) -> &[Triple] {
        self.table
            .get(&key_of(left, &self.left_components))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }
}

/// The probe kernel of a hash join over one morsel of the probe side.
pub(crate) fn hash_join_probe_slice(
    left: &[Triple],
    table: &JoinTable,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    for l in left {
        stats.triples_scanned += 1;
        for r in table.probe(l) {
            stats.pairs_considered += 1;
            if cond.check_pair(store, l, r) {
                out.push(project(l, r, output));
                stats.triples_emitted += 1;
            }
        }
    }
}

/// Probe phase of a hash join: streams `left` against a pre-built
/// [`JoinTable`], checking the full condition set per matching pair.
pub fn hash_join_probe(
    left: &TripleSet,
    table: &JoinTable,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let mut out = Vec::with_capacity(left.len());
    hash_join_probe_slice(left.as_slice(), table, output, cond, store, stats, &mut out);
    TripleSet::from_vec(out)
}

/// Morsel-parallel [`hash_join_probe`]: each worker runs the probe kernel
/// over one contiguous morsel of the probe side against the shared read-only
/// [`JoinTable`]; morsel outputs are concatenated in input order, so the
/// pre-deduplication row sequence matches the sequential probe exactly.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_probe_parallel(
    left: &TripleSet,
    table: &JoinTable,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let tasks: Vec<_> = parallel::chunk(left.as_slice(), threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out = Vec::with_capacity(morsel.len());
                hash_join_probe_slice(morsel, table, output, cond, store, stats, &mut out);
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    TripleSet::from_vec(parts.concat())
}

/// The index-probe kernel over one morsel of the outer side.
#[allow(clippy::too_many_arguments)]
pub(crate) fn index_nested_loop_join_slice(
    outer: &[Triple],
    base: &TripleSet,
    index: &RelationIndex,
    probe: (Pos, Pos),
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    let (outer_pos, inner_pos) = probe;
    debug_assert!(outer_pos.is_left() && inner_pos.is_right());
    let inner_component = inner_pos.component_index();
    for l in outer {
        stats.triples_scanned += 1;
        let value = l.0[outer_pos.component_index()];
        for r in index.matching(base, inner_component, value) {
            stats.pairs_considered += 1;
            if cond.check_pair(store, l, r) {
                out.push(project(l, r, output));
                stats.triples_emitted += 1;
            }
        }
    }
}

/// Index nested-loop join: probes a base relation's permutation index with
/// each outer triple instead of building a hash table.
///
/// `probe` is the cross equality used for the index lookup — the outer
/// triple's component at `probe.0` must equal the relation's component at
/// `probe.1`. Remaining conditions (including further keys) are checked per
/// candidate pair. The outer input plays the *left* role of the join.
#[allow(clippy::too_many_arguments)]
pub fn index_nested_loop_join(
    outer: &TripleSet,
    base: &TripleSet,
    index: &RelationIndex,
    probe: (Pos, Pos),
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let mut out = Vec::with_capacity(outer.len());
    index_nested_loop_join_slice(
        outer.as_slice(),
        base,
        index,
        probe,
        output,
        cond,
        store,
        stats,
        &mut out,
    );
    TripleSet::from_vec(out)
}

/// Morsel-parallel [`index_nested_loop_join`]: partitions the outer side;
/// workers probe the shared permutation index concurrently (the probed
/// permutation is forced into existence first, so workers never contend on
/// the lazy `OnceLock` initialisation).
#[allow(clippy::too_many_arguments)]
pub fn index_nested_loop_join_parallel(
    outer: &TripleSet,
    base: &TripleSet,
    index: &RelationIndex,
    probe: (Pos, Pos),
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    // Materialise the probed permutation on the coordinating thread so every
    // worker starts with a cache hit.
    let inner_component = probe.1.component_index();
    index.permutation(base, trial_core::Permutation::keyed_on(inner_component));
    let tasks: Vec<_> = parallel::chunk(outer.as_slice(), threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out = Vec::with_capacity(morsel.len());
                index_nested_loop_join_slice(
                    morsel, base, index, probe, output, cond, store, stats, &mut out,
                );
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    TripleSet::from_vec(parts.concat())
}

/// The merge-join kernel over one pair of key-sorted runs: both slices are
/// sorted by (at least) their key component, so the join is one synchronized
/// forward pass expanding equal-key run pairs into cross products. No hash
/// table, no build phase — the set-at-a-time twin of
/// [`crate::cursor`]'s `MergeJoinCursor`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn merge_join_slice(
    left: &[Triple],
    right: &[Triple],
    lc: usize,
    rc: usize,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let lk = left[i].0[lc];
        let rk = right[j].0[rc];
        if lk < rk {
            stats.triples_scanned += 1;
            i += 1;
        } else if rk < lk {
            stats.triples_scanned += 1;
            j += 1;
        } else {
            let i_end = i + left[i..].partition_point(|t| t.0[lc] == lk);
            let j_end = j + right[j..].partition_point(|t| t.0[rc] == rk);
            stats.triples_scanned += (i_end - i + j_end - j) as u64;
            for l in &left[i..i_end] {
                for r in &right[j..j_end] {
                    stats.pairs_considered += 1;
                    if cond.check_pair(store, l, r) {
                        out.push(project(l, r, output));
                        stats.triples_emitted += 1;
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
}

/// Sort-merge join over two key-sorted runs (see `merge_join_slice`).
#[allow(clippy::too_many_arguments)]
pub fn merge_join(
    left: &[Triple],
    right: &[Triple],
    lc: usize,
    rc: usize,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let mut out = Vec::with_capacity(left.len().min(right.len()));
    merge_join_slice(left, right, lc, rc, output, cond, store, stats, &mut out);
    TripleSet::from_vec(out)
}

/// Carves a key-sorted run into at most `parts` contiguous morsels whose
/// boundaries fall on key-run boundaries: every run of equal `component`
/// values lands wholly inside one morsel. This is the alignment step of the
/// morsel-parallel merge join — near-equal splits (the shape
/// `RangeCursor::split` / `partition_cursors` produce) are snapped forward
/// to the end of the key run they cut through, so no worker ever sees half
/// a cross product. Morsels are never empty; fewer than `parts` come back
/// when runs are wide.
pub(crate) fn align_key_runs(
    sorted: &[Triple],
    component: usize,
    parts: usize,
) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(sorted.len());
    if parts == 0 {
        return Vec::new();
    }
    let target = sorted.len().div_ceil(parts);
    let mut bounds = Vec::with_capacity(parts);
    let mut start = 0;
    while start < sorted.len() {
        let mut end = (start + target).min(sorted.len());
        // Snap forward past the key run the naive boundary would cut.
        if end < sorted.len() {
            let key = sorted[end - 1].0[component];
            end += sorted[end..].partition_point(|t| t.0[component] == key);
        }
        bounds.push((start, end));
        start = end;
    }
    bounds
}

/// Morsel-parallel [`merge_join`]: the left run is carved into key-aligned
/// morsels (`align_key_runs`); each worker binary-searches the matching
/// right sub-run for its key range and merges the pair independently.
/// Morsel outputs concatenate in left order, so the pre-deduplication row
/// sequence is identical to the sequential merge.
#[allow(clippy::too_many_arguments)]
pub fn merge_join_parallel(
    left: &[Triple],
    right: &[Triple],
    lc: usize,
    rc: usize,
    output: &OutputSpec,
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    stats.joins_executed += 1;
    let tasks: Vec<_> = align_key_runs(left, lc, threads)
        .into_iter()
        .map(|(start, end)| {
            let morsel = &left[start..end];
            move |stats: &mut EvalStats| {
                // The aligned right sub-run covering this morsel's key range.
                let lo = morsel[0].0[lc];
                let hi = morsel[morsel.len() - 1].0[lc];
                let r_start = right.partition_point(|t| t.0[rc] < lo);
                let r_end = r_start + right[r_start..].partition_point(|t| t.0[rc] <= hi);
                let mut out = Vec::with_capacity(morsel.len());
                merge_join_slice(
                    morsel,
                    &right[r_start..r_end],
                    lc,
                    rc,
                    output,
                    cond,
                    store,
                    stats,
                    &mut out,
                );
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    TripleSet::from_vec(parts.concat())
}

/// The store's active domain, checked against `options.max_universe`: the
/// guard shared by the materialising [`universe`] and the streaming
/// universe/complement cursors (which enumerate `adom³` lazily but must
/// still refuse queries whose full drain would exceed the cap).
pub fn universe_domain(store: &Triplestore, options: &EvalOptions) -> Result<Vec<ObjectId>> {
    let adom = store.active_domain();
    let n = adom.len();
    let total = n.saturating_mul(n).saturating_mul(n);
    if total > options.max_universe {
        return Err(Error::LimitExceeded(format!(
            "universal relation would contain {total} triples (active domain of {n} objects); \
             the configured limit is {}",
            options.max_universe
        )));
    }
    Ok(adom)
}

/// Materialises the universal relation `U = adom³` over the store's active
/// domain, guarding against blow-up with `options.max_universe`.
pub fn universe(
    store: &Triplestore,
    options: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<TripleSet> {
    let adom = universe_domain(store, options)?;
    let n = adom.len();
    let total = n.saturating_mul(n).saturating_mul(n);
    let mut out = Vec::with_capacity(total);
    for &a in &adom {
        for &b in &adom {
            for &c in &adom {
                out.push(Triple::new(a, b, c));
            }
        }
    }
    stats.triples_emitted += total as u64;
    // adom is sorted and deduplicated and the loops are lexicographic, so the
    // output is strictly increasing: take the zero-copy path.
    Ok(TripleSet::from_sorted_vec(out))
}

/// Positions of a hash key restricted to one side, as component indices.
pub fn key_components(keys: &[(Pos, Pos)], left: bool) -> Vec<usize> {
    keys.iter()
        .map(|(l, r)| {
            if left {
                l.component_index()
            } else {
                r.component_index()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use trial_core::{Conditions, TriplestoreBuilder, Value};

    fn store() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        b.add_triple("E", "a", "p", "b");
        b.add_triple("E", "b", "p", "c");
        b.add_triple("E", "c", "q", "d");
        b.object_with_value("a", Value::int(1));
        b.object_with_value("c", Value::int(1));
        b.finish()
    }

    fn rel(store: &Triplestore) -> TripleSet {
        store.require_relation("E").unwrap().clone()
    }

    /// Build + probe in one call, keyed on the condition's cross equalities.
    fn hash_join(
        left: &TripleSet,
        right: &TripleSet,
        output: &OutputSpec,
        cond: &CompiledConditions,
        store: &Triplestore,
        stats: &mut EvalStats,
    ) -> TripleSet {
        let table = JoinTable::build(right, &cond.cross_equalities(), stats);
        hash_join_probe(left, &table, output, cond, store, stats)
    }

    #[test]
    fn select_filters_by_constant() {
        let store = store();
        let e = rel(&store);
        let mut stats = EvalStats::new();
        let cond =
            CompiledConditions::compile(&Conditions::new().obj_eq_const(Pos::L2, "p"), &store);
        let out = select(&e, &cond, &store, &mut stats);
        assert_eq!(out.len(), 2);
        assert_eq!(stats.triples_scanned, 3);
        assert_eq!(stats.triples_emitted, 2);
    }

    #[test]
    fn nested_loop_and_hash_join_agree() {
        let store = store();
        let e = rel(&store);
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let cond = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let mut s1 = EvalStats::new();
        let mut s2 = EvalStats::new();
        let nl = nested_loop_join(&e, &e, &out_spec, &cond, &store, &mut s1);
        let hj = hash_join(&e, &e, &out_spec, &cond, &store, &mut s2);
        assert_eq!(nl, hj);
        // a→b→c and b→c→d compose.
        assert_eq!(
            store.display_triples(&nl),
            vec!["(a, p, c)".to_string(), "(b, p, d)".to_string()]
        );
        // The nested loop considered all 9 pairs, the hash join fewer.
        assert_eq!(s1.pairs_considered, 9);
        assert!(s2.pairs_considered < 9);
    }

    #[test]
    fn index_join_agrees_with_hash_join() {
        let store = store();
        let (base, index) = store.relation_with_index("E").unwrap();
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let cond = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let mut s1 = EvalStats::new();
        let mut s2 = EvalStats::new();
        let hj = hash_join(base, base, &out_spec, &cond, &store, &mut s1);
        let inlj = index_nested_loop_join(
            base,
            base,
            index,
            (Pos::L3, Pos::R1),
            &out_spec,
            &cond,
            &store,
            &mut s2,
        );
        assert_eq!(hj, inlj);
        assert_eq!(s1.pairs_considered, s2.pairs_considered);
    }

    #[test]
    fn prebuilt_tables_are_reusable() {
        let store = store();
        let e = rel(&store);
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let cond = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let keys = cond.cross_equalities();
        let mut stats = EvalStats::new();
        let table = JoinTable::build(&e, &keys, &mut stats);
        assert!(!table.is_empty());
        assert_eq!(table.len(), 3); // distinct first components a, b, c
        let first = hash_join_probe(&e, &table, &out_spec, &cond, &store, &mut stats);
        let second = hash_join_probe(&first, &table, &out_spec, &cond, &store, &mut stats);
        assert_eq!(first.len(), 2); // a→c, b→d
        assert_eq!(second.len(), 1); // a→d
                                     // Build scanned the 3 right triples exactly once.
        assert_eq!(stats.triples_scanned, 3 + 3 + 2);
    }

    #[test]
    fn single_column_keys_avoid_wide_variants() {
        let t = Triple::new(ObjectId(1), ObjectId(2), ObjectId(3));
        assert_eq!(key_of(&t, &[0]), JoinKey::One(ObjectId(1)));
        assert_eq!(key_of(&t, &[2, 0]), JoinKey::Two(ObjectId(3), ObjectId(1)));
        assert_eq!(
            key_of(&t, &[0, 1, 2]),
            JoinKey::Three([ObjectId(1), ObjectId(2), ObjectId(3)])
        );
        assert_eq!(
            key_of(&t, &[0, 0, 1, 1]),
            JoinKey::Wide(vec![ObjectId(1), ObjectId(1), ObjectId(2), ObjectId(2)])
        );
    }

    #[test]
    fn join_with_data_condition() {
        let store = store();
        let e = rel(&store);
        // Join triples whose endpoints carry the same data value:
        // ρ(1) = ρ(3') pairs (a,..) with (..,c) etc.
        let cond =
            CompiledConditions::compile(&Conditions::new().data_eq(Pos::L1, Pos::R3), &store);
        let mut s = EvalStats::new();
        let out = nested_loop_join(
            &e,
            &e,
            &OutputSpec::new(Pos::L1, Pos::R2, Pos::R3),
            &cond,
            &store,
            &mut s,
        );
        // ρ(a)=1 matches ρ(c)=1: left triples starting at a, right triples ending at c.
        // Also ρ(c)=1 matches ρ(c)=1 and ρ(a)=1.
        assert!(out.iter().any(|t| store.display_triple(t) == "(a, p, c)"));
    }

    #[test]
    fn universe_size_and_limit() {
        let store = store();
        let mut s = EvalStats::new();
        let u = universe(&store, &EvalOptions::default(), &mut s).unwrap();
        // Active domain: a, p, b, c, q, d = 6 objects → 216 triples.
        assert_eq!(u.len(), 216);
        let tight = EvalOptions {
            max_universe: 100,
            ..EvalOptions::default()
        };
        let err = universe(&store, &tight, &mut s).unwrap_err();
        assert!(matches!(err, Error::LimitExceeded(_)));
    }

    #[test]
    fn key_components_extraction() {
        let keys = vec![(Pos::L3, Pos::R1), (Pos::L2, Pos::R2)];
        assert_eq!(key_components(&keys, true), vec![2, 1]);
        assert_eq!(key_components(&keys, false), vec![0, 1]);
    }

    #[test]
    fn parallel_build_matches_sequential_build_bucket_for_bucket() {
        let store = store();
        let e = rel(&store);
        let cond = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let keys = cond.cross_equalities();
        for threads in [1usize, 2, 4, 7] {
            let mut s1 = EvalStats::new();
            let mut s2 = EvalStats::new();
            let seq = JoinTable::build(&e, &keys, &mut s1);
            let par = JoinTable::build_parallel(&e, &keys, threads, &CancelToken::none(), &mut s2);
            assert_eq!(seq.len(), par.len());
            // Every probe answers with the same bucket in the same order.
            for t in e.iter() {
                assert_eq!(seq.probe(t), par.probe(t), "bucket diverges at {t:?}");
            }
            // The parallel build scanned each triple exactly once, like the
            // sequential one.
            assert_eq!(s1.triples_scanned, s2.triples_scanned);
        }
    }

    #[test]
    fn parallel_operators_agree_with_sequential_ones() {
        let store = store();
        let e = rel(&store);
        let (base, index) = store.relation_with_index("E").unwrap();
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let eq = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let neq = CompiledConditions::compile(&Conditions::new().obj_neq(Pos::L1, Pos::R1), &store);
        let sel =
            CompiledConditions::compile(&Conditions::new().obj_eq_const(Pos::L2, "p"), &store);
        for threads in [2usize, 3, 8] {
            let mut seq = EvalStats::new();
            let mut par = EvalStats::new();
            // Selection.
            assert_eq!(
                select(&e, &sel, &store, &mut seq),
                select_parallel(&e, &sel, &store, threads, &CancelToken::none(), &mut par)
            );
            // Hash probe (the shared table is built outside both arms).
            let keys = eq.cross_equalities();
            let table = JoinTable::build(&e, &keys, &mut EvalStats::new());
            assert_eq!(
                hash_join_probe(&e, &table, &out_spec, &eq, &store, &mut seq),
                hash_join_probe_parallel(
                    &e,
                    &table,
                    &out_spec,
                    &eq,
                    &store,
                    threads,
                    &CancelToken::none(),
                    &mut par
                )
            );
            // Index nested-loop join.
            assert_eq!(
                index_nested_loop_join(
                    base,
                    base,
                    index,
                    (Pos::L3, Pos::R1),
                    &out_spec,
                    &eq,
                    &store,
                    &mut seq
                ),
                index_nested_loop_join_parallel(
                    base,
                    base,
                    index,
                    (Pos::L3, Pos::R1),
                    &out_spec,
                    &eq,
                    &store,
                    threads,
                    &CancelToken::none(),
                    &mut par
                )
            );
            // Plain nested loop (no hashable key).
            assert_eq!(
                nested_loop_join(&e, &e, &out_spec, &neq, &store, &mut seq),
                nested_loop_join_parallel(
                    &e,
                    &e,
                    &out_spec,
                    &neq,
                    &store,
                    threads,
                    &CancelToken::none(),
                    &mut par
                )
            );
            // Work counters are exact sums: identical to the sequential run,
            // except for the morsel count.
            assert_eq!(seq.pairs_considered, par.pairs_considered);
            assert_eq!(seq.triples_scanned, par.triples_scanned);
            assert_eq!(seq.triples_emitted, par.triples_emitted);
            assert_eq!(seq.joins_executed, par.joins_executed);
            assert_eq!(seq.parallel_morsels, 0);
            assert!(par.parallel_morsels > 0, "parallel paths must be exercised");
        }
    }
}
