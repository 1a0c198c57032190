//! Differential suite for regular path queries: the automaton product
//! walk, the TriAL star lowering and an independent naive reference must
//! agree on random labelled graphs and random path expressions.
//!
//! The naive reference is deliberately implemented from scratch in this
//! file — pair-set fixpoints for the unbounded semantics, a path-length
//! bitmask DP for the `max_hops`-bounded semantics — so a shared bug in
//! `trial_eval::rpq` cannot vouch for itself.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use trial_core::{TripleSet, Triplestore, TriplestoreBuilder};
use trial_eval::rpq::{self, Nfa};
use trial_eval::{CancelToken, Engine, EvalStats, SmartEngine};
use trial_parser::PathExpr;

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A random labelled graph: `edges[(u, v)]`-style triples `(nu, label, nv)`
/// over at most `n` nodes.
#[derive(Debug, Clone)]
struct Graph {
    edges: Vec<(u32, usize, u32)>,
}

impl Graph {
    fn store(&self) -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        b.relation("E");
        for &(u, l, v) in &self.edges {
            b.add_triple("E", format!("n{u}"), LABELS[l], format!("n{v}"));
        }
        b.finish()
    }

    /// The identity universe: subjects ∪ objects of the relation (matching
    /// both `rpq::node_universe` and the lowering's `ident`).
    fn nodes(&self) -> BTreeSet<u32> {
        self.edges.iter().flat_map(|&(u, _, v)| [u, v]).collect()
    }

    fn pairs_for(&self, label: &str) -> BTreeSet<(u32, u32)> {
        self.edges
            .iter()
            .filter(|&&(_, l, _)| LABELS[l] == label)
            .map(|&(u, _, v)| (u, v))
            .collect()
    }
}

fn arb_graph() -> impl Strategy<Value = Graph> {
    prop::collection::vec((0u32..7, 0usize..LABELS.len(), 0u32..7), 0..24)
        .prop_map(|edges| Graph { edges })
}

fn arb_path() -> impl Strategy<Value = PathExpr> {
    let leaf = prop::sample::select(LABELS.to_vec()).prop_map(|l| PathExpr::Atom(l.to_owned()));
    leaf.prop_recursive(3, 10, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(PathExpr::Seq),
            prop::collection::vec(inner.clone(), 2..4).prop_map(PathExpr::Alt),
            inner.clone().prop_map(|p| PathExpr::Star(Box::new(p))),
            inner.clone().prop_map(|p| PathExpr::Plus(Box::new(p))),
            inner.prop_map(|p| PathExpr::Opt(Box::new(p))),
        ]
    })
}

// ── Naive reference #1: unbounded pair-set fixpoint ─────────────────────────

fn compose(left: &BTreeSet<(u32, u32)>, right: &BTreeSet<(u32, u32)>) -> BTreeSet<(u32, u32)> {
    let mut by_src: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for &(u, v) in right {
        by_src.entry(u).or_default().push(v);
    }
    let mut out = BTreeSet::new();
    for &(u, mid) in left {
        if let Some(vs) = by_src.get(&mid) {
            out.extend(vs.iter().map(|&v| (u, v)));
        }
    }
    out
}

fn naive_pairs(path: &PathExpr, graph: &Graph) -> BTreeSet<(u32, u32)> {
    match path {
        PathExpr::Atom(l) => graph.pairs_for(l),
        PathExpr::Seq(parts) => parts
            .iter()
            .map(|p| naive_pairs(p, graph))
            .reduce(|acc, next| compose(&acc, &next))
            .unwrap_or_default(),
        PathExpr::Alt(parts) => parts.iter().flat_map(|p| naive_pairs(p, graph)).collect(),
        PathExpr::Plus(inner) => {
            let step = naive_pairs(inner, graph);
            let mut reach = step.clone();
            loop {
                let mut next = reach.clone();
                next.extend(compose(&reach, &step));
                if next == reach {
                    return reach;
                }
                reach = next;
            }
        }
        PathExpr::Star(inner) => {
            let mut reach = naive_pairs(&PathExpr::Plus(inner.clone()), graph);
            reach.extend(graph.nodes().into_iter().map(|n| (n, n)));
            reach
        }
        PathExpr::Opt(inner) => {
            let mut reach = naive_pairs(inner, graph);
            reach.extend(graph.nodes().into_iter().map(|n| (n, n)));
            reach
        }
    }
}

// ── Naive reference #2: bounded path-length bitmask DP ──────────────────────
//
// `LenMap[(u, v)]` is a bitmask: bit `L` set ⇔ some walk of exactly `L`
// graph edges from `u` to `v` matches the (sub)expression. All masks are
// truncated to lengths ≤ `H` via `mask`, which is sound for answering
// "is there a matching walk of ≤ H edges".

type LenMap = BTreeMap<(u32, u32), u128>;

fn hop_mask(h: usize) -> u128 {
    if h >= 127 {
        u128::MAX
    } else {
        (1u128 << (h + 1)) - 1
    }
}

fn len_or(into: &mut LenMap, from: &LenMap) {
    for (&k, &m) in from {
        *into.entry(k).or_insert(0) |= m;
    }
}

fn len_compose(left: &LenMap, right: &LenMap, mask: u128) -> LenMap {
    let mut by_src: BTreeMap<u32, Vec<(u32, u128)>> = BTreeMap::new();
    for (&(u, v), &m) in right {
        by_src.entry(u).or_default().push((v, m));
    }
    let mut out = LenMap::new();
    for (&(u, mid), &lm) in left {
        let Some(nexts) = by_src.get(&mid) else {
            continue;
        };
        for i in 0..128 {
            if lm & (1u128 << i) == 0 {
                continue;
            }
            for &(v, rm) in nexts {
                let shifted = (rm << i) & mask;
                if shifted != 0 {
                    *out.entry((u, v)).or_insert(0) |= shifted;
                }
            }
        }
    }
    out
}

fn len_pairs(path: &PathExpr, graph: &Graph, mask: u128) -> LenMap {
    match path {
        PathExpr::Atom(l) => graph
            .pairs_for(l)
            .into_iter()
            .map(|p| (p, 0b10 & mask))
            .filter(|&(_, m)| m != 0)
            .collect(),
        PathExpr::Seq(parts) => parts
            .iter()
            .map(|p| len_pairs(p, graph, mask))
            .reduce(|acc, next| len_compose(&acc, &next, mask))
            .unwrap_or_default(),
        PathExpr::Alt(parts) => {
            let mut out = LenMap::new();
            for p in parts {
                len_or(&mut out, &len_pairs(p, graph, mask));
            }
            out
        }
        PathExpr::Plus(inner) => {
            let step = len_pairs(inner, graph, mask);
            let mut reach = step.clone();
            loop {
                let mut next = reach.clone();
                len_or(&mut next, &len_compose(&reach, &step, mask));
                if next == reach {
                    return reach;
                }
                reach = next;
            }
        }
        PathExpr::Star(inner) => {
            let mut reach = len_pairs(&PathExpr::Plus(inner.clone()), graph, mask);
            for n in graph.nodes() {
                *reach.entry((n, n)).or_insert(0) |= 1;
            }
            reach
        }
        PathExpr::Opt(inner) => {
            let mut reach = len_pairs(inner, graph, mask);
            for n in graph.nodes() {
                *reach.entry((n, n)).or_insert(0) |= 1;
            }
            reach
        }
    }
}

fn bounded_naive(path: &PathExpr, graph: &Graph, max_hops: usize) -> BTreeSet<(u32, u32)> {
    len_pairs(path, graph, hop_mask(max_hops))
        .into_iter()
        .filter(|&(_, m)| m != 0)
        .map(|(p, _)| p)
        .collect()
}

// ── Evaluators under test ───────────────────────────────────────────────────

fn nfa_eval(
    store: &Triplestore,
    path: &PathExpr,
    max_hops: Option<usize>,
    threads: usize,
) -> TripleSet {
    let mut stats = EvalStats::new();
    rpq::eval_on_store(
        store,
        "E",
        path,
        max_hops,
        threads,
        &CancelToken::none(),
        &mut stats,
    )
    .unwrap()
}

fn lowered_eval(store: &Triplestore, path: &PathExpr) -> TripleSet {
    let lowered = rpq::lower(path, "E");
    SmartEngine::new().run(&lowered, store).unwrap()
}

/// Decodes an `(x, x, y)`-encoded result back to node pairs, checking the
/// encoding invariant along the way.
fn as_pairs(store: &Triplestore, set: &TripleSet) -> BTreeSet<(u32, u32)> {
    set.iter()
        .map(|t| {
            assert_eq!(t.s(), t.p(), "path results must be (x, x, y) encoded");
            let node = |id| {
                let name = store.object_name(id);
                name.strip_prefix('n')
                    .and_then(|n| n.parse::<u32>().ok())
                    .unwrap_or_else(|| panic!("unexpected node name {name}"))
            };
            (node(t.s()), node(t.o()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// NFA product walk ≡ independent pair-set fixpoint (unbounded).
    #[test]
    fn nfa_matches_naive(graph in arb_graph(), path in arb_path()) {
        let store = graph.store();
        let got = as_pairs(&store, &nfa_eval(&store, &path, None, 1));
        prop_assert_eq!(got, naive_pairs(&path, &graph));
    }

    /// TriAL star lowering ≡ the same reference — and byte-identical to the
    /// NFA walk's result set.
    #[test]
    fn lowering_matches_naive_and_nfa(graph in arb_graph(), path in arb_path()) {
        let store = graph.store();
        let lowered = lowered_eval(&store, &path);
        prop_assert_eq!(as_pairs(&store, &lowered), naive_pairs(&path, &graph));
        prop_assert_eq!(lowered, nfa_eval(&store, &path, None, 1));
    }

    /// The parallel fan-out is deterministic: threads 1, 2 and 4 produce
    /// byte-identical result sets.
    #[test]
    fn threads_agree(graph in arb_graph(), path in arb_path(),
                     max_hops in prop_oneof![Just(None), (0usize..6).prop_map(Some)]) {
        let store = graph.store();
        let one = nfa_eval(&store, &path, max_hops, 1);
        prop_assert_eq!(&one, &nfa_eval(&store, &path, max_hops, 2));
        prop_assert_eq!(&one, &nfa_eval(&store, &path, max_hops, 4));
    }

    /// Bounded walks ≡ the independent path-length DP.
    #[test]
    fn bounded_matches_length_dp(graph in arb_graph(), path in arb_path(),
                                 max_hops in 0usize..6) {
        let store = graph.store();
        let got = as_pairs(&store, &nfa_eval(&store, &path, Some(max_hops), 1));
        prop_assert_eq!(got, bounded_naive(&path, &graph, max_hops));
    }

    /// A hop budget at least as large as the product graph's vertex count
    /// cannot cut any shortest matching walk: bounded ≡ unbounded.
    #[test]
    fn generous_bound_is_unbounded(graph in arb_graph(), path in arb_path()) {
        let store = graph.store();
        let diameter_bound = graph.nodes().len() * Nfa::compile(&path).state_count();
        let bounded = nfa_eval(&store, &path, Some(diameter_bound), 1);
        prop_assert_eq!(bounded, nfa_eval(&store, &path, None, 1));
    }

    /// Limits through the planner: `stream_path_query` with `?limit=`-style
    /// bounds 0 / 1 / half / full / none delivers exact prefixes of the
    /// SPO-ordered full result.
    #[test]
    fn limits_are_exact_prefixes(graph in arb_graph(), path in arb_path()) {
        let store = graph.store();
        let engine = SmartEngine::new();
        let collect = |limit: Option<usize>| -> Vec<trial_core::Triple> {
            let mut stream = engine
                .stream_path_query(&path, "E", &store, None, limit, None, None)
                .unwrap();
            let mut rows = Vec::new();
            while let Some(t) = stream.next_triple() {
                rows.push(t);
            }
            rows
        };
        let full = collect(None);
        prop_assert_eq!(full.clone(), nfa_eval(&store, &path, None, 1).into_vec());
        for limit in [0, 1, full.len() / 2, full.len(), full.len() + 7] {
            prop_assert_eq!(collect(Some(limit)), full[..limit.min(full.len())].to_vec());
        }
    }
}

/// Spot-checks pinning the pair encoding and the identity semantics on a
/// hand-built graph (cheap to eyeball when a proptest case shrinks here).
#[test]
fn star_identity_covers_relation_nodes_only() {
    let graph = Graph {
        edges: vec![(0, 0, 1), (1, 1, 2)],
    };
    let store = graph.store();
    let star = PathExpr::Star(Box::new(PathExpr::Atom("a".to_owned())));
    // Identity over {0,1,2} plus the single `a` edge (0,1).
    let got = as_pairs(&store, &nfa_eval(&store, &star, None, 1));
    let want: BTreeSet<(u32, u32)> = [(0, 0), (1, 1), (2, 2), (0, 1)].into_iter().collect();
    assert_eq!(got, want);
    assert_eq!(got, as_pairs(&store, &lowered_eval(&store, &star)));
}
