//! Lazily-built, cached **permutation indexes** over triplestore relations.
//!
//! Mature RDF stores answer triple patterns from a family of sorted
//! permutations of the triple table (SPO/POS/OSP &c.) rather than scanning
//! one canonical order. This module brings the same idea to the TriAL data
//! model:
//!
//! * every [`Triplestore`] owns a [`StoreIndexes`] cache, created empty and
//!   populated on demand ([`Triplestore::indexes`]);
//! * each relation gets a [`RelationIndex`]: the canonical sorted
//!   [`TripleSet`] *is* the SPO permutation, and the POS / OSP permutations
//!   plus per-component statistics are built lazily behind [`OnceLock`]s;
//! * [`RelationIndex::matching`] answers "all triples with component *i*
//!   equal to *o*" as a borrowed, contiguous slice of the appropriate
//!   permutation — the primitive behind index scans and index nested-loop
//!   joins in `trial-eval`.
//!
//! Indexes are caches, not state: cloning a store (e.g. via
//! [`Triplestore::with_relation`]) starts from an empty cache so a derived
//! store can never observe stale indexes. An **append** is the exception
//! that carries them: a store finished from
//! [`TriplestoreBuilder::append_to`](crate::TriplestoreBuilder::append_to)
//! receives whatever its base had *already built* — the POS / OSP runs with
//! the new triples merged in (one pass per run, no re-sort), the distinct
//! counts and the active domain updated from the delta — while runs the
//! base never built stay lazy.

use crate::object::ObjectId;
use crate::triple::{Triple, TripleSet};
use std::collections::HashMap;
use std::sync::OnceLock;

/// A streaming cursor over a contiguous run of a permutation index.
///
/// This is the storage-layer primitive behind the pull-based operator
/// pipeline in `trial-eval`: instead of cloning whole relations (or slices of
/// them) into intermediate [`TripleSet`]s, executors pull one [`Triple`] at a
/// time and can stop early — a `LIMIT 10` over a million-triple scan touches
/// ten triples. The cursor borrows the index, so construction is `O(log n)`
/// (for bounded runs) and iteration is zero-copy.
#[derive(Debug, Clone)]
pub struct RangeCursor<'a> {
    slice: &'a [Triple],
    pos: usize,
}

impl<'a> RangeCursor<'a> {
    /// Wraps a borrowed run of triples (already in the desired order).
    pub fn new(slice: &'a [Triple]) -> Self {
        RangeCursor { slice, pos: 0 }
    }

    /// Number of triples not yet yielded.
    pub fn remaining(&self) -> usize {
        self.slice.len() - self.pos
    }

    /// The not-yet-yielded rest of the run as a borrowed slice.
    pub fn rest(&self) -> &'a [Triple] {
        &self.slice[self.pos..]
    }

    /// Advances the cursor past every triple whose [`Permutation::key`]
    /// under `perm` is `<= key`, in `O(log remaining)`.
    ///
    /// The run must already be sorted by `perm` (as every permutation run
    /// handed out by [`RelationIndex`] is) — seeking is a
    /// [`partition_point`](slice::partition_point) over the not-yet-yielded
    /// rest, so a cursor that has already yielded rows only ever moves
    /// forward. Because permutation keys are total (equal key ⟺ equal
    /// triple), `seek` is exact: after `seek(perm, perm.key(&t))` the next
    /// triple yielded is the successor of `t` in the run, which is what
    /// makes resumable pagination a logarithmic re-entry instead of an
    /// `O(offset)` re-scan.
    pub fn seek(&mut self, perm: Permutation, key: [ObjectId; 3]) {
        let skip = self.rest().partition_point(|t| perm.key(t) <= key);
        self.pos += skip;
    }
}

impl Iterator for RangeCursor<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        let t = self.slice.get(self.pos).copied()?;
        self.pos += 1;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RangeCursor<'_> {}

/// The three sort orders kept per relation, named by which component each
/// makes the primary key (using RDF vocabulary: Subject/Predicate/Object for
/// components 1/2/3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Permutation {
    /// Sorted by (1, 2, 3) — the canonical [`TripleSet`] order.
    Spo,
    /// Sorted by (2, 3, 1).
    Pos,
    /// Sorted by (3, 1, 2).
    Osp,
}

impl Permutation {
    /// All three permutations in declaration order.
    pub const ALL: [Permutation; 3] = [Permutation::Spo, Permutation::Pos, Permutation::Osp];

    /// The permutation whose primary sort key is the given 0-based component.
    ///
    /// # Panics
    /// Panics if `component > 2`.
    pub fn keyed_on(component: usize) -> Permutation {
        match component {
            0 => Permutation::Spo,
            1 => Permutation::Pos,
            2 => Permutation::Osp,
            _ => panic!("triple component index must be 0, 1 or 2 (got {component})"),
        }
    }

    /// The 0-based component this permutation is keyed on.
    pub fn key_component(self) -> usize {
        match self {
            Permutation::Spo => 0,
            Permutation::Pos => 1,
            Permutation::Osp => 2,
        }
    }

    /// The lowercase name (`"spo"`, `"pos"`, `"osp"`), as used by
    /// `explain()` order tags and the server's `?order=` parameter.
    pub fn name(self) -> &'static str {
        match self {
            Permutation::Spo => "spo",
            Permutation::Pos => "pos",
            Permutation::Osp => "osp",
        }
    }

    /// Parses a permutation name as accepted by `?order=`
    /// (case-insensitive `spo`/`pos`/`osp`).
    pub fn parse(name: &str) -> Option<Permutation> {
        match name.to_ascii_lowercase().as_str() {
            "spo" => Some(Permutation::Spo),
            "pos" => Some(Permutation::Pos),
            "osp" => Some(Permutation::Osp),
            _ => None,
        }
    }

    /// The sort key of a triple under this permutation.
    ///
    /// Keys are a *permutation* of all three components, so the induced
    /// order is total: two triples compare equal under a permutation key iff
    /// they are the same triple. This is what lets ordered streams double as
    /// duplicate-free streams and lets top-k heaps deduplicate by key alone.
    #[inline]
    pub fn key(self, t: &Triple) -> [ObjectId; 3] {
        let [s, p, o] = t.0;
        match self {
            Permutation::Spo => [s, p, o],
            Permutation::Pos => [p, o, s],
            Permutation::Osp => [o, s, p],
        }
    }

    /// The **secondary order** of this permutation's bound runs: the
    /// permutation under which a run of `self` with a fixed primary
    /// component is *also* strictly sorted.
    ///
    /// Within such a run the keyed component is constant and the rows are
    /// sorted by the remaining two components in key order — which is
    /// exactly the full key of the permutation keyed on the *second* sort
    /// component (its trailing component is the constant one, so it never
    /// disturbs the comparison). Concretely: a bound SPO run is also
    /// POS-sorted, a bound POS run is also OSP-sorted, and a bound OSP run
    /// is also SPO-sorted. This is what lets a bound index scan deliver two
    /// sort orders for free — the planner exploits it to merge-join
    /// bound ⋈ bound shapes without inserting a sort.
    #[inline]
    pub fn secondary(self) -> Permutation {
        match self {
            Permutation::Spo => Permutation::Pos,
            Permutation::Pos => Permutation::Osp,
            Permutation::Osp => Permutation::Spo,
        }
    }

    /// Reconstructs the triple whose [`Permutation::key`] under `self` is
    /// `key` — the inverse mapping used when a top-k heap of keys is turned
    /// back into result triples.
    #[inline]
    pub fn from_key(self, key: [ObjectId; 3]) -> Triple {
        let [a, b, c] = key;
        match self {
            Permutation::Spo => Triple::new(a, b, c),
            Permutation::Pos => Triple::new(c, a, b),
            Permutation::Osp => Triple::new(b, c, a),
        }
    }
}

impl std::fmt::Display for Permutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The subject runs of an SPO-sorted slice, found through a dense offset
/// table: the triples with subject `x` are `run[offsets[x - lo]..offsets[x -
/// lo + 1]]`, where `lo` and `hi` are the first and last subjects of the run.
///
/// Built in one pass, the table costs `4·(hi − lo + 2)` bytes — it spans the
/// run's subject ids, never the whole dictionary — and answers a lookup in
/// `O(1)` (plus a binary search within the run when a label is given). It is
/// the successor lookup of the Proposition 5 and RPQ walks in `trial-eval`:
/// the edge graph of a relation is its SPO run read as `x → y` per triple
/// `(x, ℓ, y)`, so the walks need no structure of their own.
///
/// The table holds no borrow of the run: every lookup is handed the run it
/// was built from, so a cursor can own its run and its table side by side.
#[derive(Debug, Clone)]
pub struct SubjectRuns {
    lo: usize,
    offsets: Vec<u32>,
}

impl SubjectRuns {
    /// Builds the offset table of `run`, which must be sorted by subject
    /// (any SPO-sorted slice, such as a [`TripleSet`]).
    ///
    /// # Panics
    /// Panics if `run` holds more than `u32::MAX` triples.
    pub fn new(run: &[Triple]) -> Self {
        let len = u32::try_from(run.len()).expect("a subject run indexes at most u32::MAX triples");
        let lo = run.first().map_or(0, |t| t.s().index());
        let span = run.last().map_or(0, |t| t.s().index() - lo + 1);
        let mut offsets = Vec::with_capacity(span + 1);
        for (i, t) in (0..len).zip(run) {
            // Triple `i` opens the run of every subject id up to its own
            // that no earlier triple opened (the ids in a gap get empty runs).
            offsets.resize(t.s().index() - lo + 1, i);
        }
        offsets.push(len);
        SubjectRuns { lo, offsets }
    }

    /// The triples of `run` — the slice the table was built from — with
    /// subject `x` and, if `label` is given, middle element `label`, as a
    /// contiguous sub-slice in SPO order. Empty for a subject outside the
    /// run.
    pub fn of<'r>(&self, run: &'r [Triple], x: ObjectId, label: Option<ObjectId>) -> &'r [Triple] {
        let Some(k) = x.index().checked_sub(self.lo) else {
            return &[];
        };
        let (Some(&start), Some(&end)) = (self.offsets.get(k), self.offsets.get(k + 1)) else {
            return &[];
        };
        let run = &run[start as usize..end as usize];
        match label {
            None => run,
            Some(label) => {
                let from = run.partition_point(|t| t.p() < label);
                let to = from + run[from..].partition_point(|t| t.p() == label);
                &run[from..to]
            }
        }
    }
}

/// Per-relation permutation indexes and statistics.
///
/// Everything is built lazily on first use and cached; the canonical SPO
/// order is the relation's [`TripleSet`] itself and costs nothing. Accessors
/// take the base triple set as an argument so the index never duplicates the
/// store's ownership of the data.
#[derive(Debug, Default)]
pub struct RelationIndex {
    pos: OnceLock<Vec<Triple>>,
    osp: OnceLock<Vec<Triple>>,
    distinct: OnceLock<[usize; 3]>,
}

/// Counts runs of equal values of `component` in a slice sorted so that the
/// component is the primary key.
fn count_runs(sorted: &[Triple], component: usize) -> usize {
    let mut runs = 0;
    let mut last: Option<ObjectId> = None;
    for t in sorted {
        let v = t.0[component];
        if last != Some(v) {
            runs += 1;
            last = Some(v);
        }
    }
    runs
}

/// Merges `delta` into `run` — both strictly sorted under `perm` and
/// disjoint — in one pass: each delta triple binary-searches its slot in
/// what is left of `run`, and the gap before it is copied as one block. The
/// cost is `O(|delta| · log |run|)` comparisons plus one copy of `run`.
pub(crate) fn merge_run(run: &[Triple], delta: &[Triple], perm: Permutation) -> Vec<Triple> {
    let mut out = Vec::with_capacity(run.len() + delta.len());
    let mut rest = run;
    for t in delta {
        let key = perm.key(t);
        let cut = rest.partition_point(|r| perm.key(r) < key);
        out.extend_from_slice(&rest[..cut]);
        out.push(*t);
        rest = &rest[cut..];
    }
    out.extend_from_slice(rest);
    out
}

/// How many distinct values of `component` among `novel` never occur in
/// that component of `keyed`, a run whose primary sort key it is.
fn unseen_values(keyed: &[Triple], novel: &[Triple], component: usize) -> usize {
    let mut values: Vec<ObjectId> = novel.iter().map(|t| t.0[component]).collect();
    values.sort_unstable();
    values.dedup();
    values
        .into_iter()
        .filter(|&v| {
            let at = keyed.partition_point(|t| t.0[component] < v);
            keyed.get(at).is_none_or(|t| t.0[component] != v)
        })
        .count()
}

/// The active domain as a membership bitmap over object ids, with its exact
/// size kept beside it so [`Triplestore::active_domain_len`] is `O(1)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveDomain {
    bits: Vec<u64>,
    len: usize,
}

impl ActiveDomain {
    /// Marks every component of every triple as active.
    fn extend<'a>(&mut self, triples: impl IntoIterator<Item = &'a Triple>) {
        for t in triples {
            for id in t.0 {
                let (word, mask) = (id.index() / 64, 1u64 << (id.index() % 64));
                if word >= self.bits.len() {
                    self.bits.resize(word + 1, 0);
                }
                if self.bits[word] & mask == 0 {
                    self.bits[word] |= mask;
                    self.len += 1;
                }
            }
        }
    }

    /// The active objects in ascending id order.
    pub(crate) fn ids(&self) -> Vec<ObjectId> {
        let mut out = Vec::with_capacity(self.len);
        for (word, &bits) in self.bits.iter().enumerate() {
            let mut rest = bits;
            while rest != 0 {
                out.push(ObjectId::from_index(
                    word * 64 + rest.trailing_zeros() as usize,
                ));
                rest &= rest - 1;
            }
        }
        out
    }
}

impl RelationIndex {
    /// Creates an index shell with nothing materialised yet.
    pub fn new() -> Self {
        RelationIndex::default()
    }

    fn sorted_by(base: &TripleSet, perm: Permutation) -> Vec<Triple> {
        let mut v: Vec<Triple> = base.as_slice().to_vec();
        v.sort_unstable_by_key(|t| perm.key(t));
        v
    }

    /// Whether the run in the given permutation's order is already
    /// materialised (`Spo` always is) — a probe only, it builds nothing.
    pub fn is_built(&self, perm: Permutation) -> bool {
        match perm {
            Permutation::Spo => true,
            Permutation::Pos => self.pos.get().is_some(),
            Permutation::Osp => self.osp.get().is_some(),
        }
    }

    /// The index of `old ∪ novel`, given this index over `old` and the
    /// `novel` triples (SPO-sorted, duplicate-free, disjoint from `old`):
    /// each built run gets the delta merged in, built distinct counts grow
    /// by the delta's unseen values, and everything unbuilt stays lazy.
    pub(crate) fn append(&self, old: &TripleSet, novel: &[Triple]) -> RelationIndex {
        let carry = |slot: &OnceLock<Vec<Triple>>, perm: Permutation| match slot.get() {
            Some(run) => {
                let mut delta = novel.to_vec();
                delta.sort_unstable_by_key(|t| perm.key(t));
                OnceLock::from(merge_run(run, &delta, perm))
            }
            None => OnceLock::new(),
        };
        let distinct = match (self.distinct.get(), self.pos.get(), self.osp.get()) {
            (Some(counts), Some(pos), Some(osp)) => {
                let keyed = [old.as_slice(), pos, osp];
                OnceLock::from(std::array::from_fn(|c| {
                    counts[c] + unseen_values(keyed[c], novel, c)
                }))
            }
            _ => OnceLock::new(),
        };
        RelationIndex {
            pos: carry(&self.pos, Permutation::Pos),
            osp: carry(&self.osp, Permutation::Osp),
            distinct,
        }
    }

    /// The triples of `base` in the given permutation's order.
    ///
    /// `Spo` is free (it borrows `base`); `Pos` and `Osp` are built on first
    /// use and cached.
    pub fn permutation<'a>(&'a self, base: &'a TripleSet, perm: Permutation) -> &'a [Triple] {
        match perm {
            Permutation::Spo => base.as_slice(),
            Permutation::Pos => self.pos.get_or_init(|| Self::sorted_by(base, perm)),
            Permutation::Osp => self.osp.get_or_init(|| Self::sorted_by(base, perm)),
        }
    }

    /// All triples of `base` whose 0-based `component` equals `value`, as a
    /// contiguous slice of the permutation keyed on that component.
    ///
    /// This is the index-scan / index-probe primitive: `O(log |base|)` to
    /// locate the run, zero-copy to return it.
    pub fn matching<'a>(
        &'a self,
        base: &'a TripleSet,
        component: usize,
        value: ObjectId,
    ) -> &'a [Triple] {
        let perm = Permutation::keyed_on(component);
        let sorted = self.permutation(base, perm);
        let start = sorted.partition_point(|t| t.0[component] < value);
        let end = start + sorted[start..].partition_point(|t| t.0[component] == value);
        &sorted[start..end]
    }

    /// Streams `base` in the given permutation's order without copying.
    ///
    /// Equivalent to iterating [`RelationIndex::permutation`], packaged as a
    /// [`RangeCursor`] so executors can treat full scans and bounded runs
    /// uniformly.
    pub fn scan_cursor<'a>(&'a self, base: &'a TripleSet, perm: Permutation) -> RangeCursor<'a> {
        RangeCursor::new(self.permutation(base, perm))
    }

    /// Streams all triples of `base` whose 0-based `component` equals
    /// `value` — the cursor form of [`RelationIndex::matching`]: `O(log
    /// |base|)` to position, zero-copy to iterate, early-terminatable.
    pub fn matching_cursor<'a>(
        &'a self,
        base: &'a TripleSet,
        component: usize,
        value: ObjectId,
    ) -> RangeCursor<'a> {
        RangeCursor::new(self.matching(base, component, value))
    }

    /// Number of distinct values per component `[|π₁|, |π₂|, |π₃|]` — the
    /// statistics behind the planner's selectivity estimates.
    pub fn distinct_counts(&self, base: &TripleSet) -> [usize; 3] {
        *self.distinct.get_or_init(|| {
            [
                count_runs(self.permutation(base, Permutation::Spo), 0),
                count_runs(self.permutation(base, Permutation::Pos), 1),
                count_runs(self.permutation(base, Permutation::Osp), 2),
            ]
        })
    }
}

/// All per-relation indexes of one store, keyed by relation name, plus the
/// store-wide active domain.
#[derive(Debug, Default)]
pub struct StoreIndexes {
    relations: HashMap<String, RelationIndex>,
    active: OnceLock<ActiveDomain>,
}

impl StoreIndexes {
    /// Creates an index cache with one empty shell per relation name.
    pub fn for_relations<'a>(names: impl IntoIterator<Item = &'a str>) -> StoreIndexes {
        StoreIndexes {
            relations: names
                .into_iter()
                .map(|n| (n.to_owned(), RelationIndex::new()))
                .collect(),
            active: OnceLock::new(),
        }
    }

    /// The index shell for a relation, if the relation exists.
    pub fn relation(&self, name: &str) -> Option<&RelationIndex> {
        self.relations.get(name)
    }

    /// The indexes of a store that extends `base` (whose indexes these
    /// are) by `novel`: one `(relation, triples)` entry per relation of the
    /// new store, each SPO-sorted, duplicate-free and disjoint from the
    /// base's relation of that name. Relations new to the store get an
    /// empty shell.
    pub(crate) fn append(&self, base: &Triplestore, novel: &[(String, Vec<Triple>)]) -> Self {
        let relations = novel
            .iter()
            .map(|(name, delta)| {
                let index = match (self.relations.get(name), base.relation(name)) {
                    (Some(ix), Some(old)) => ix.append(old.triples(), delta),
                    _ => RelationIndex::new(),
                };
                (name.clone(), index)
            })
            .collect();
        let active = match self.active.get() {
            Some(active) => {
                let mut active = active.clone();
                active.extend(novel.iter().flat_map(|(_, delta)| delta));
                OnceLock::from(active)
            }
            None => OnceLock::new(),
        };
        StoreIndexes { relations, active }
    }
}

/// The lazily-initialised index slot embedded in every [`Triplestore`].
///
/// Cloning yields an *empty* cache (indexes are derived data and a cloned
/// store is usually about to diverge from the original); an append builds
/// its slot from the base's instead, so what the base had built stays
/// built. Equality always holds (caches never participate in store
/// identity).
#[derive(Default)]
pub struct IndexCache(OnceLock<Box<StoreIndexes>>);

impl IndexCache {
    /// The indexes, building the per-relation shells on first use.
    pub fn get_or_init(&self, init: impl FnOnce() -> StoreIndexes) -> &StoreIndexes {
        self.0.get_or_init(|| Box::new(init()))
    }

    /// The indexes if anything has asked for them yet, without building.
    pub(crate) fn built(&self) -> Option<&StoreIndexes> {
        self.0.get().map(|ix| &**ix)
    }
}

impl From<StoreIndexes> for IndexCache {
    fn from(indexes: StoreIndexes) -> Self {
        IndexCache(OnceLock::from(Box::new(indexes)))
    }
}

impl Clone for IndexCache {
    fn clone(&self) -> Self {
        IndexCache::default()
    }
}

impl PartialEq for IndexCache {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

impl Eq for IndexCache {}

impl std::fmt::Debug for IndexCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.0.get() {
            Some(ix) => write!(f, "IndexCache({} relations)", ix.relations.len()),
            None => write!(f, "IndexCache(empty)"),
        }
    }
}

use crate::store::Triplestore;

impl Triplestore {
    /// The store's permutation indexes, built lazily and shared by reference.
    ///
    /// The first call creates an empty [`RelationIndex`] shell per relation;
    /// individual permutations and statistics materialise only when an
    /// engine first asks for them and are cached for the lifetime of the
    /// store.
    pub fn indexes(&self) -> &StoreIndexes {
        self.index_cache()
            .get_or_init(|| StoreIndexes::for_relations(self.relation_names()))
    }

    /// The index plus triples of one relation, if it exists. Convenience for
    /// engines that need both halves of the [`RelationIndex`] API.
    pub fn relation_with_index(&self, name: &str) -> Option<(&TripleSet, &RelationIndex)> {
        let triples = self.relation(name)?.triples();
        let index = self.indexes().relation(name)?;
        Some((triples, index))
    }

    /// The active domain, built on first use by one pass over every
    /// relation (no sort) and carried across appends.
    pub(crate) fn active(&self) -> &ActiveDomain {
        self.indexes().active.get_or_init(|| {
            let mut active = ActiveDomain::default();
            active.extend(self.relations().flat_map(|r| r.triples()));
            active
        })
    }

    /// `|adom|`, the exact size of [`Triplestore::active_domain`], in `O(1)`
    /// once built — what the planner's universe estimates read.
    pub fn active_domain_len(&self) -> usize {
        self.active().len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::TriplestoreBuilder;
    use proptest::prelude::*;

    fn store() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        b.add_triple("E", "a", "p", "b");
        b.add_triple("E", "b", "p", "c");
        b.add_triple("E", "c", "q", "a");
        b.add_triple("E", "a", "q", "c");
        b.add_triple("F", "x", "r", "y");
        b.finish()
    }

    #[test]
    fn permutations_are_sorted_by_their_key() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        for perm in [Permutation::Spo, Permutation::Pos, Permutation::Osp] {
            let sorted = ix.permutation(base, perm);
            assert_eq!(sorted.len(), base.len());
            assert!(sorted
                .windows(2)
                .all(|w| { perm.key(&w[0]) <= perm.key(&w[1]) }));
        }
    }

    #[test]
    fn matching_returns_exactly_the_bound_runs() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        let a = store.object_id("a").unwrap();
        let p = store.object_id("p").unwrap();
        let c = store.object_id("c").unwrap();
        // Component 1 bound to `a`: the two triples starting at a.
        let by_s = ix.matching(base, 0, a);
        assert_eq!(by_s.len(), 2);
        assert!(by_s.iter().all(|t| t.s() == a));
        // Component 2 bound to `p`.
        let by_p = ix.matching(base, 1, p);
        assert_eq!(by_p.len(), 2);
        assert!(by_p.iter().all(|t| t.p() == p));
        // Component 3 bound to `c`.
        let by_o = ix.matching(base, 2, c);
        assert_eq!(by_o.len(), 2);
        assert!(by_o.iter().all(|t| t.o() == c));
        // A value that never occurs in the component yields an empty slice.
        assert!(ix.matching(base, 1, a).is_empty());
    }

    #[test]
    fn bound_runs_are_strictly_sorted_under_the_secondary_order() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        for component in 0..3 {
            let primary = Permutation::keyed_on(component);
            let secondary = primary.secondary();
            assert_eq!(secondary.key_component(), (component + 1) % 3);
            // Every bound run of the primary permutation must be strictly
            // increasing under the secondary permutation's full key.
            for t in base.iter() {
                let value = t.0[component];
                let run = ix.matching(base, component, value);
                assert!(!run.is_empty());
                assert!(run
                    .windows(2)
                    .all(|w| secondary.key(&w[0]) < secondary.key(&w[1])));
            }
        }
    }

    #[test]
    fn distinct_counts_match_reality() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        // Subjects {a, b, c}, predicates {p, q}, objects {a, b, c}.
        assert_eq!(ix.distinct_counts(base), [3, 2, 3]);
    }

    #[test]
    fn clone_resets_the_cache_so_derived_stores_reindex() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        assert_eq!(ix.distinct_counts(base)[0], 3);
        // Derive a store with E replaced; its indexes must reflect the new E.
        let only: TripleSet = [store.triple_by_names("a", "p", "b").unwrap()]
            .into_iter()
            .collect();
        let derived = store.with_relation("E", only);
        let (base2, ix2) = derived.relation_with_index("E").unwrap();
        assert_eq!(base2.len(), 1);
        assert_eq!(ix2.distinct_counts(base2), [1, 1, 1]);
        // The original store's cached statistics are untouched.
        assert_eq!(ix.distinct_counts(base), [3, 2, 3]);
    }

    #[test]
    fn scan_cursors_stream_the_permutations() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        for perm in [Permutation::Spo, Permutation::Pos, Permutation::Osp] {
            let mut cursor = ix.scan_cursor(base, perm);
            assert_eq!(cursor.remaining(), base.len());
            assert_eq!(cursor.len(), base.len());
            let streamed: Vec<Triple> = cursor.by_ref().collect();
            assert_eq!(streamed, ix.permutation(base, perm).to_vec());
            assert_eq!(cursor.remaining(), 0);
            assert_eq!(cursor.next(), None);
        }
    }

    #[test]
    fn matching_cursors_stream_bounded_runs() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        let a = store.object_id("a").unwrap();
        let mut cursor = ix.matching_cursor(base, 0, a);
        assert_eq!(cursor.remaining(), 2);
        // Early termination: pull one triple, the rest stays borrowed.
        let first = cursor.next().unwrap();
        assert_eq!(first.s(), a);
        assert_eq!(cursor.rest().len(), 1);
        // A value absent from the component yields an empty cursor.
        let p = store.object_id("p").unwrap();
        assert_eq!(ix.matching_cursor(base, 0, p).count(), 0);
    }

    #[test]
    fn seek_resumes_exactly_after_a_key() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        for perm in Permutation::ALL {
            let run = ix.permutation(base, perm).to_vec();
            // Seeking to each triple's own key resumes at its successor.
            for (i, t) in run.iter().enumerate() {
                let mut cursor = ix.scan_cursor(base, perm);
                cursor.seek(perm, perm.key(t));
                let rest: Vec<Triple> = cursor.collect();
                assert_eq!(rest, run[i + 1..].to_vec(), "perm={perm} i={i}");
            }
            // Seeking below the first key is a no-op; past the last empties.
            let mut cursor = ix.scan_cursor(base, perm);
            cursor.seek(perm, [ObjectId(0); 3]);
            assert_eq!(cursor.remaining(), run.len());
            cursor.seek(perm, [ObjectId(u32::MAX); 3]);
            assert_eq!(cursor.remaining(), 0);
        }
    }

    #[test]
    fn seek_only_moves_forward() {
        let store = store();
        let (base, ix) = store.relation_with_index("E").unwrap();
        let run = ix.permutation(base, Permutation::Spo).to_vec();
        let mut cursor = ix.scan_cursor(base, Permutation::Spo);
        // Consume past the midpoint, then seek to an earlier key: the cursor
        // must not rewind into already-yielded territory.
        let consumed = run.len() - 1;
        for _ in 0..consumed {
            cursor.next().unwrap();
        }
        cursor.seek(Permutation::Spo, [ObjectId(0); 3]);
        assert_eq!(cursor.remaining(), run.len() - consumed);
        assert_eq!(cursor.next(), Some(run[consumed]));
    }

    #[test]
    fn permutation_keys_round_trip_and_parse() {
        let t = Triple::new(ObjectId(1), ObjectId(2), ObjectId(3));
        for perm in Permutation::ALL {
            assert_eq!(perm.from_key(perm.key(&t)), t, "round trip for {perm}");
            assert_eq!(Permutation::parse(perm.name()), Some(perm));
            assert_eq!(Permutation::parse(&perm.name().to_uppercase()), Some(perm));
            assert_eq!(perm.key(&t)[0], t.0[perm.key_component()]);
        }
        assert_eq!(
            Permutation::Pos.key(&t),
            [ObjectId(2), ObjectId(3), ObjectId(1)]
        );
        assert_eq!(
            Permutation::Osp.key(&t),
            [ObjectId(3), ObjectId(1), ObjectId(2)]
        );
        assert_eq!(Permutation::parse("sop"), None);
        assert_eq!(Permutation::Spo.to_string(), "spo");
    }

    #[test]
    fn indexes_cover_every_relation() {
        let store = store();
        assert!(store.indexes().relation("E").is_some());
        assert!(store.indexes().relation("F").is_some());
        assert!(store.indexes().relation("nope").is_none());
        assert!(store.relation_with_index("nope").is_none());
    }

    fn t(s: u32, p: u32, o: u32) -> Triple {
        Triple::new(ObjectId(s), ObjectId(p), ObjectId(o))
    }

    #[test]
    fn subject_runs_edge_cases() {
        let id = ObjectId;
        // An empty base has no runs, whatever the subject or label.
        let empty = SubjectRuns::new(&[]);
        assert!(empty.of(&[], id(0), None).is_empty());
        assert!(empty.of(&[], id(7), Some(id(1))).is_empty());

        // Subjects 3, 5 and 6 (4 is a gap); 5 carries labels 1, 2 and 4, and
        // 6 has a self-loop.
        let run = [
            t(3, 1, 9),
            t(5, 1, 3),
            t(5, 1, 6),
            t(5, 2, 7),
            t(5, 4, 3),
            t(6, 2, 6),
        ];
        let runs = SubjectRuns::new(&run);
        assert_eq!(runs.of(&run, id(3), None), &run[..1]);
        assert_eq!(runs.of(&run, id(5), None), &run[1..5]);
        assert_eq!(runs.of(&run, id(6), None), &run[5..]);
        // Below `lo`, above `hi` and in the gap between subjects.
        for x in [0, 2, 4, 7, 1000] {
            assert!(runs.of(&run, id(x), None).is_empty(), "subject {x}");
            assert!(runs.of(&run, id(x), Some(id(1))).is_empty(), "subject {x}");
        }
        // Labels at the first and last position of a run, in the middle,
        // absent below, between and above the run's labels.
        assert_eq!(runs.of(&run, id(5), Some(id(1))), &run[1..3]);
        assert_eq!(runs.of(&run, id(5), Some(id(2))), &run[3..4]);
        assert_eq!(runs.of(&run, id(5), Some(id(4))), &run[4..5]);
        for label in [0, 3, 5] {
            assert!(
                runs.of(&run, id(5), Some(id(label))).is_empty(),
                "label {label}"
            );
        }
        // A self-loop is an ordinary successor of its own subject.
        assert_eq!(runs.of(&run, id(6), Some(id(2))), &[t(6, 2, 6)]);

        // One triple with a large subject id: a two-entry table.
        let far = [t(u32::MAX - 1, 0, 0)];
        let runs = SubjectRuns::new(&far);
        assert_eq!(runs.offsets.len(), 2);
        assert_eq!(runs.of(&far, id(u32::MAX - 1), None), &far);
        assert_eq!(runs.of(&far, id(u32::MAX - 1), Some(id(0))), &far);
        assert!(runs.of(&far, id(u32::MAX), None).is_empty());
        assert!(runs.of(&far, id(0), None).is_empty());
    }

    proptest! {
        /// Every lookup equals a linear filter of the run.
        #[test]
        fn subject_runs_match_a_linear_filter(
            triples in prop::collection::vec((0u32..12, 0u32..4, 0u32..12), 0..40),
            lo in 0u32..1000,
        ) {
            let run: TripleSet = triples.iter().map(|&(s, p, o)| t(lo + s, p, o)).collect();
            let runs = SubjectRuns::new(run.as_slice());
            for x in lo.saturating_sub(2)..lo + 14 {
                for label in [None, Some(0), Some(1), Some(3), Some(5)] {
                    let expected: Vec<Triple> = run
                        .iter()
                        .filter(|t| t.s() == ObjectId(x) && label.is_none_or(|l| t.p() == ObjectId(l)))
                        .copied()
                        .collect();
                    prop_assert_eq!(runs.of(run.as_slice(), ObjectId(x), label.map(ObjectId)), expected.as_slice());
                }
            }
        }
    }
}
