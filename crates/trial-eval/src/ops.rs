//! Shared physical operators: selections, joins, and the universal relation.
//!
//! The set-at-a-time kernels here serve [`crate::NaiveEngine`], the
//! semi-naive fixpoint and the filtered index scans the executor
//! materialises; the cursors of [`crate::cursor`] share [`JoinTable`] and the
//! projection filter with them. Hash joins are split into an explicit build
//! phase ([`JoinTable::build`]) and probe phase ([`hash_join_probe`]) so that
//! fixpoint iterations can hash their invariant side **once** and probe it
//! every round.
//!
//! There is **one kernel per operator**, and the degree of parallelism is an
//! argument of it. Each kernel carves its input with `parallel::chunk`, runs
//! one task per morsel through `parallel::run_tasks` and concatenates the
//! morsel outputs in input order. At degree 1 there is one morsel and its
//! task runs inline on the calling thread, so the sequential reference and
//! the morsel executor are the same code. Work counters are exact sums of the morsels'
//! and therefore equal at every degree.
//!
//! # The U rule: a join sees only the positions it uses
//!
//! Under set semantics a join reads each side only through U, the
//! components of that side that its output or any `θ`/`η` atom names
//! ([`used_positions`]). Two rows of one side that agree on U produce exactly
//! the same output rows, so after projection a row meets at most |O|
//! distinct partners: this is why TriAL⁼ runs in O(|e|·|O|·|T|)
//! (Proposition 4). Every keyed join applies it:
//!
//! * **probe and outer sides** (hash and index nested-loop joins) skip a row
//!   whose projection was already probed. The cursors keep a seen-set;
//!   [`hash_join_probe`] drops repeats in one pass before carving morsels;
//! * **build and buffered sides** keep one row per projection: each hash
//!   bucket after the shards merge, each right key group of a merge join;
//! * **merge key groups** also keep one left row per projection.
//!
//! Every filter keeps the first occurrence in input order, and every row it
//! drops would have re-emitted rows already emitted. So the distinct rows of
//! a stream arrive in the same order as without it, and a `?limit=` page is
//! unchanged. A dropped row was still read and counts in `triples_scanned`;
//! only `pairs_considered` and `triples_emitted` fall. A full mask (U is
//! all three components) filters nothing and costs nothing.
//! [`nested_loop_join`] is the paper's Procedure 1 verbatim and does not
//! apply the rule: `NaiveEngine` is built on it and is the oracle.

use crate::cancel::CancelToken;
use crate::compile::{project, used_positions, CompiledConditions, Used};
use crate::engine::{EvalOptions, EvalStats};
use crate::parallel;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use trial_core::{Error, ObjectId, OutputSpec, Pos, Result, Triple, TripleSet, Triplestore};

/// Runs `kernel` once per morsel on up to `threads` workers and concatenates
/// the outputs in morsel order. A single morsel's output is moved, not
/// copied.
fn per_morsel<'m, F>(
    morsels: Vec<&'m [Triple]>,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
    kernel: F,
) -> Vec<Triple>
where
    F: Fn(&'m [Triple], &mut EvalStats) -> Vec<Triple> + Sync,
{
    let kernel = &kernel;
    let tasks: Vec<_> = morsels
        .into_iter()
        .map(|morsel| move |stats: &mut EvalStats| kernel(morsel, stats))
        .collect();
    let mut parts = parallel::run_tasks(threads, tasks, cancel, stats);
    match parts.len() {
        1 => parts.pop().unwrap_or_default(),
        _ => parts.concat(),
    }
}

/// A multiply-rotate hasher for projection keys ([`Used::key`]). The keys
/// are the store's own ids, not outside input, so the seen-sets need no
/// flooding resistance and skip SipHash's cost on every probe row.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // indexes by the low ones.
        self.0.rotate_left(26)
    }
}

/// A first-occurrence filter over the projections of one join side (the U
/// rule). Under a full mask every row passes and nothing is stored. The
/// first few projections are compared linearly, and past `LINEAR` they move
/// into a hash set, so a small group without duplicates costs a few
/// compares and no hashing.
#[derive(Debug)]
pub(crate) struct Distinct {
    used: Used,
    few: Vec<u64>,
    many: HashSet<u64, BuildHasherDefault<IdHasher>>,
}

/// Projections a [`Distinct`] compares linearly before it starts hashing.
const LINEAR: usize = 16;

impl Distinct {
    pub(crate) fn new(used: Used) -> Distinct {
        Distinct {
            used,
            few: Vec::new(),
            many: HashSet::default(),
        }
    }

    /// `true` the first time a row with `t`'s projection is offered.
    #[inline]
    pub(crate) fn first(&mut self, t: &Triple) -> bool {
        if self.used.is_full() {
            return true;
        }
        let key = self.used.key(t);
        if self.many.is_empty() {
            if self.few.contains(&key) {
                return false;
            }
            if self.few.len() < LINEAR {
                self.few.push(key);
                return true;
            }
            self.many.extend(self.few.drain(..));
        }
        self.many.insert(key)
    }

    /// Forgets every projection seen so far.
    pub(crate) fn clear(&mut self) {
        self.few.clear();
        self.many.clear();
    }
}

/// The probe rows of a keyed join: `rows` with every repeat of an earlier
/// row's projection dropped, in order. The dropped rows were read, so they
/// count as scanned here; the kernel counts the rest.
fn probe_rows<'r>(rows: &'r [Triple], used: Used, stats: &mut EvalStats) -> Cow<'r, [Triple]> {
    if used.is_full() {
        return Cow::Borrowed(rows);
    }
    let mut seen = Distinct::new(used);
    let kept: Vec<Triple> = rows.iter().filter(|t| seen.first(t)).copied().collect();
    stats.triples_scanned += (rows.len() - kept.len()) as u64;
    Cow::Owned(kept)
}

/// Filters a run by compiled (left-only) conditions, keeping its order.
pub fn select(
    input: &[Triple],
    cond: &CompiledConditions,
    store: &Triplestore,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> Vec<Triple> {
    let morsels = parallel::chunk(input, threads);
    per_morsel(morsels, threads, cancel, stats, |morsel, stats| {
        stats.triples_scanned += morsel.len() as u64;
        let mut out = Vec::with_capacity(morsel.len());
        for t in morsel {
            if cond.check_single(store, t) {
                out.push(*t);
                stats.triples_emitted += 1;
            }
        }
        out
    })
}

/// Nested-loop join: inspects every pair of triples, exactly as in the
/// paper's Procedure 1. Cost `O(|left|·|right|)`; the left side is carved
/// into morsels, each inspected against the whole right side.
#[allow(clippy::too_many_arguments)]
pub fn nested_loop_join(
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
    let morsels = parallel::chunk(left.as_slice(), threads);
    TripleSet::from_vec(per_morsel(
        morsels,
        threads,
        cancel,
        stats,
        |morsel, stats| {
            let mut out = Vec::with_capacity(morsel.len().max(right.len()));
            for l in morsel {
                for r in right.iter() {
                    stats.pairs_considered += 1;
                    if cond.check_pair(store, l, r) {
                        out.push(project(l, r, output));
                        stats.triples_emitted += 1;
                    }
                }
            }
            out
        },
    ))
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
    /// `(left position, right position)`), keeping one row per projection
    /// under `used`, the right side's mask (the U rule).
    ///
    /// Each morsel of `right` is hashed into a private shard. One shard is
    /// the table; several are merged **in morsel order**, which makes every
    /// bucket the same sub-sequence of `right`'s order at every degree, so
    /// probe results (and streamed row order under a limit) never depend on
    /// the degree. Buckets drop repeated projections only after the merge,
    /// keeping each first occurrence, so they too are the same at every
    /// degree.
    ///
    /// # Panics
    /// Panics if `keys` is empty — key-free joins have no hashable column and
    /// must use [`nested_loop_join`].
    pub fn build(
        right: &TripleSet,
        keys: &[(Pos, Pos)],
        used: Used,
        threads: usize,
        cancel: &CancelToken,
        stats: &mut EvalStats,
    ) -> JoinTable {
        assert!(!keys.is_empty(), "hash join requires at least one key");
        stats.hash_tables_built += 1;
        let right_components = key_components(keys, false);
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
        let mut shards = parallel::run_tasks(threads, tasks, cancel, stats).into_iter();
        let mut table = shards.next().unwrap_or_default();
        for shard in shards {
            for (key, mut bucket) in shard {
                table.entry(key).or_default().append(&mut bucket);
            }
        }
        if !used.is_full() {
            let mut seen = Distinct::new(used);
            for bucket in table.values_mut().filter(|b| b.len() > 1) {
                seen.clear();
                bucket.retain(|r| seen.first(r));
            }
        }
        JoinTable {
            left_components: key_components(keys, true),
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

/// Probe phase of a hash join: streams each morsel of `left` against a
/// pre-built, shared read-only [`JoinTable`], checking the full condition
/// set per matching pair. Each distinct projection of `left` probes once.
#[allow(clippy::too_many_arguments)]
pub fn hash_join_probe(
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
    let [used, _] = used_positions(output, cond);
    let left = probe_rows(left.as_slice(), used, stats);
    let morsels = parallel::chunk(&left, threads);
    TripleSet::from_vec(per_morsel(
        morsels,
        threads,
        cancel,
        stats,
        |morsel, stats| {
            let mut out = Vec::with_capacity(morsel.len());
            for l in morsel {
                stats.triples_scanned += 1;
                for r in table.probe(l) {
                    stats.pairs_considered += 1;
                    if cond.check_pair(store, l, r) {
                        out.push(project(l, r, output));
                        stats.triples_emitted += 1;
                    }
                }
            }
            out
        },
    ))
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

    fn none() -> CancelToken {
        CancelToken::none()
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
        let [_, used] = used_positions(output, cond);
        let table = JoinTable::build(right, &cond.cross_equalities(), used, 1, &none(), stats);
        hash_join_probe(left, &table, output, cond, store, 1, &none(), stats)
    }

    #[test]
    fn select_filters_by_constant() {
        let store = store();
        let e = rel(&store);
        let mut stats = EvalStats::new();
        let cond =
            CompiledConditions::compile(&Conditions::new().obj_eq_const(Pos::L2, "p"), &store);
        let out = select(e.as_slice(), &cond, &store, 1, &none(), &mut stats);
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
        let nl = nested_loop_join(&e, &e, &out_spec, &cond, &store, 1, &none(), &mut s1);
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
    fn prebuilt_tables_are_reusable() {
        let store = store();
        let e = rel(&store);
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let cond = CompiledConditions::compile(&Conditions::new().obj_eq(Pos::L3, Pos::R1), &store);
        let keys = cond.cross_equalities();
        let mut stats = EvalStats::new();
        let [_, used] = used_positions(&out_spec, &cond);
        let table = JoinTable::build(&e, &keys, used, 1, &none(), &mut stats);
        assert!(!table.is_empty());
        assert_eq!(table.len(), 3); // distinct first components a, b, c
        let probe = |left: &TripleSet, stats: &mut EvalStats| {
            hash_join_probe(left, &table, &out_spec, &cond, &store, 1, &none(), stats)
        };
        let first = probe(&e, &mut stats);
        let second = probe(&first, &mut stats);
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
            1,
            &none(),
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

    /// Every kernel at degrees 2, 3 and 8 against itself at degree 1: the
    /// same rows, the same bucket for every probe, and the same work
    /// counters.
    #[test]
    fn every_kernel_is_degree_invariant() {
        let mut b = TriplestoreBuilder::new();
        // (b, q, c) repeats (b, p, c)'s projection on the right side, so the
        // table's bucket for b drops it at every degree.
        for (s, p, o) in [
            ("a", "p", "b"),
            ("b", "p", "c"),
            ("b", "q", "c"),
            ("c", "q", "d"),
        ] {
            b.add_triple("E", s, p, o);
        }
        let store = b.finish();
        let e = rel(&store);
        let out_spec = OutputSpec::new(Pos::L1, Pos::L2, Pos::R3);
        let compile = |c: Conditions| CompiledConditions::compile(&c, &store);
        let eq = compile(Conditions::new().obj_eq(Pos::L3, Pos::R1));
        let neq = compile(Conditions::new().obj_neq(Pos::L1, Pos::R1));
        let sel = compile(Conditions::new().obj_eq_const(Pos::L2, "p"));
        let keys = eq.cross_equalities();
        let [_, used] = used_positions(&out_spec, &eq);
        let run = |threads: usize| {
            let cancel = &none();
            let mut stats = EvalStats::new();
            let table = JoinTable::build(&e, &keys, used, threads, cancel, &mut stats);
            let buckets: Vec<Vec<Triple>> = e.iter().map(|t| table.probe(t).to_vec()).collect();
            let s = &mut stats;
            let rows = vec![
                TripleSet::from_sorted_vec(select(e.as_slice(), &sel, &store, threads, cancel, s)),
                hash_join_probe(&e, &table, &out_spec, &eq, &store, threads, cancel, s),
                nested_loop_join(&e, &e, &out_spec, &neq, &store, threads, cancel, s),
            ];
            (rows, buckets, stats)
        };
        let (rows, buckets, seq) = run(1);
        assert_eq!(seq.parallel_morsels, 0);
        for threads in [2usize, 3, 8] {
            let (par_rows, par_buckets, par) = run(threads);
            assert_eq!(par_rows, rows, "rows diverge at degree {threads}");
            assert_eq!(par_buckets, buckets, "buckets diverge at degree {threads}");
            assert_eq!(par.pairs_considered, seq.pairs_considered);
            assert_eq!(par.triples_scanned, seq.triples_scanned, "degree {threads}");
            assert_eq!(par.triples_emitted, seq.triples_emitted);
            assert_eq!(par.joins_executed, seq.joins_executed);
            assert!(
                par.parallel_morsels > 0,
                "degree {threads} never fanned out"
            );
        }
    }
}
