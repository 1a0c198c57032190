//! Appends are invisible: a store grown by any sequence of appends is the
//! store one `finish()` of all the same additions builds — same ids, names,
//! values and relation triples — and what an append carries forward (the
//! POS / OSP runs, distinct counts, active-domain size) equals what a fresh
//! build would compute. Bases are never changed by appending to them, and
//! two appends branched from one base do not see each other.

use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;
use trial_core::{Permutation, Triple, Triplestore, TriplestoreBuilder, Value};

/// One builder call, replayed identically on every path.
#[derive(Debug, Clone)]
enum Op {
    /// `add_triple(rel, s, p, o)` over a small name pool (so duplicates
    /// and repeated names are common).
    Triple(&'static str, usize, usize, usize),
    /// A triple whose third component is a literal carrying its text as ρ,
    /// the way `/load` ingests N-Triples literals.
    Literal(&'static str, usize, usize, usize),
    /// Overwrites ρ of a (possibly already stored) object.
    Value(usize, i64),
}

const POOL: usize = 9;

fn arb_op() -> impl Strategy<Value = Op> {
    let rel = || prop::sample::select(vec!["E", "E", "E", "F"]);
    prop_oneof![
        6 => (rel(), 0..POOL, 0..POOL, 0..POOL).prop_map(|(r, s, p, o)| Op::Triple(r, s, p, o)),
        2 => (rel(), 0..POOL, 0..POOL, 0..4usize).prop_map(|(r, s, p, l)| Op::Literal(r, s, p, l)),
        1 => (0..POOL, 0..5i64).prop_map(|(n, v)| Op::Value(n, v)),
    ]
}

/// Replays `ops`, naming objects `{prefix}{i}` so two op lists can be
/// given disjoint vocabularies.
fn apply(b: &mut TriplestoreBuilder, ops: &[Op], prefix: &str) {
    let name = |i: usize| format!("{prefix}{i}");
    for op in ops {
        match *op {
            Op::Triple(rel, s, p, o) => {
                b.add_triple(rel, name(s), name(p), name(o));
            }
            Op::Literal(rel, s, p, l) => {
                let lit = format!("\"{prefix}lit{l}\"");
                b.object_with_value(&lit, Value::str(lit.clone()));
                b.add_triple(rel, name(s), name(p), lit);
            }
            Op::Value(n, v) => {
                b.object_with_value(name(n), Value::int(v));
            }
        }
    }
}

fn one_shot(parts: &[(&[Op], &str)]) -> Triplestore {
    let mut b = TriplestoreBuilder::new();
    for (ops, prefix) in parts {
        apply(&mut b, ops, prefix);
    }
    b.finish()
}

fn append(base: &Arc<Triplestore>, ops: &[Op], prefix: &str) -> Arc<Triplestore> {
    let mut b = TriplestoreBuilder::append_to(Arc::clone(base));
    apply(&mut b, ops, prefix);
    Arc::new(b.finish())
}

/// Asks for every run and statistic an append can carry.
fn build_indexes(store: &Triplestore) {
    for rel in store.relation_names() {
        let (base, ix) = store.relation_with_index(rel).unwrap();
        ix.distinct_counts(base);
    }
    store.active_domain_len();
}

/// Everything a reader can observe of a store, dictionary included.
fn observe(store: &Triplestore) -> (Triplestore, Vec<(String, Value)>) {
    let objects = store
        .objects()
        .map(|id| (store.object_name(id).to_owned(), store.value(id).clone()))
        .collect();
    (store.clone(), objects)
}

fn sorted(base: &[Triple], perm: Permutation) -> Vec<Triple> {
    let mut fresh = base.to_vec();
    fresh.sort_by_key(|t| perm.key(t));
    fresh
}

/// Exactly the relations in `carried` arrived with POS / OSP built (the
/// rest stayed lazy), and every run and statistic of `store` — carried or
/// built now — equals a from-scratch computation.
fn assert_indexes_fresh(store: &Triplestore, carried: &HashSet<String>) {
    for rel in store.relation_names() {
        let (_, ix) = store.relation_with_index(rel).unwrap();
        for perm in [Permutation::Pos, Permutation::Osp] {
            assert_eq!(ix.is_built(perm), carried.contains(rel), "{rel} {perm}");
        }
    }
    let mut adom = HashSet::new();
    for rel in store.relation_names() {
        let (base, ix) = store.relation_with_index(rel).unwrap();
        for perm in [Permutation::Pos, Permutation::Osp] {
            let fresh = sorted(base.as_slice(), perm);
            assert_eq!(ix.permutation(base, perm), &fresh[..], "{rel} {perm}");
        }
        let distinct: [usize; 3] =
            std::array::from_fn(|c| base.iter().map(|t| t.0[c]).collect::<HashSet<_>>().len());
        assert_eq!(ix.distinct_counts(base), distinct, "{rel}");
        adom.extend(base.iter().flat_map(|t| t.0));
    }
    assert_eq!(store.active_domain_len(), adom.len());
    assert_eq!(store.active_domain().len(), adom.len());
}

/// The runs `store` has built are still the sorted permutations of its
/// relations (checks only; builds nothing).
fn assert_built_runs_fresh(store: &Triplestore) {
    for rel in store.relation_names() {
        let (base, ix) = store.relation_with_index(rel).unwrap();
        for perm in [Permutation::Pos, Permutation::Osp] {
            if ix.is_built(perm) {
                let fresh = sorted(base.as_slice(), perm);
                assert_eq!(ix.permutation(base, perm), &fresh[..], "{rel} {perm}");
            }
        }
    }
}

/// Relations of `store` whose POS / OSP runs are built.
fn built(store: &Triplestore) -> HashSet<String> {
    store
        .relation_names()
        .filter(|rel| {
            let (_, ix) = store.relation_with_index(rel).unwrap();
            ix.is_built(Permutation::Pos) && ix.is_built(Permutation::Osp)
        })
        .map(str::to_owned)
        .collect()
}

/// Splits `ops` into `parts` contiguous chunks at the given cut seeds.
fn split(ops: &[Op], cuts: &[usize]) -> Vec<Vec<Op>> {
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (ops.len() + 1)).collect();
    at.sort_unstable();
    let mut chunks = Vec::new();
    let mut start = 0;
    for end in at.into_iter().chain([ops.len()]) {
        chunks.push(ops[start..end].to_vec());
        start = end;
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn appends_equal_one_shot_loads(
        ops in prop::collection::vec(arb_op(), 0..60),
        cuts in prop::collection::vec(0usize..1000, 0..5),
        indexed in prop::collection::vec(any::<bool>(), 1..6),
        branch in prop::collection::vec(arb_op(), 1..12),
    ) {
        let chunks = split(&ops, &cuts);
        let mut store = Arc::new(TriplestoreBuilder::new().finish());
        for (chunk, &index_base) in chunks.iter().zip(indexed.iter().cycle()) {
            if index_base {
                build_indexes(&store);
            }
            let carried = built(&store);
            let before = observe(&store);
            let next = append(&store, chunk, "n");
            prop_assert_eq!(observe(&store), before, "the base changed");
            assert_built_runs_fresh(&store);
            // Checking builds every run, so check a twin of `next` (the same
            // append again) and let the chain go on from an untouched store.
            assert_indexes_fresh(&append(&store, chunk, "n"), &carried);
            store = next;
        }
        prop_assert_eq!(&*store, &one_shot(&[(&ops, "n")]));

        // Two appends branched from one base, each adding names of its own:
        // neither may see the other's dictionary entries or triples.
        let (head, last) = ops.split_at(ops.len() - chunks.last().unwrap().len());
        let base = Arc::new(one_shot(&[(head, "n")]));
        if indexed[0] {
            build_indexes(&base);
        }
        let carried = built(&base);
        let left = append(&base, last, "n");
        let right = append(&base, &branch, "b");
        prop_assert_eq!(&*left, &one_shot(&[(head, "n"), (last, "n")]));
        prop_assert_eq!(&*right, &one_shot(&[(head, "n"), (&branch, "b")]));
        prop_assert_eq!(&*base, &one_shot(&[(head, "n")]));
        assert_indexes_fresh(&left, &carried);
        assert_indexes_fresh(&right, &carried);
    }
}
