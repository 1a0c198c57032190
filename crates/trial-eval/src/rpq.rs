//! Regular path queries over the triplestore (Section 6 of the paper).
//!
//! The paper's central theorem is that TriAL* captures regular path
//! queries. This module makes the claim executable in both directions:
//!
//! * [`eval_product`] evaluates a [`PathExpr`] as a BFS over the product of
//!   the edge graph with a Thompson [`Nfa`] of the expression — the classic
//!   PTIME RPQ procedure, and the one evaluator behind the server's `/path`
//!   (its plan is a [`PlanNode::PathNfa`](crate::PlanNode::PathNfa) leaf).
//!   It walks the relation's SPO run through the same
//!   [`SubjectRuns`](trial_core::SubjectRuns) lookup as [`crate::reach`],
//!   checks the [`CancelToken`] between BFS roots, and supports a
//!   `max_hops` bound (the product BFS is level-synchronous, so bounding
//!   path length is free).
//! * [`lower`] compiles every [`PathExpr`] into a plain TriAL\*
//!   [`Expr`] — pairs `(x, y)` are encoded as triples `(x, x, y)`,
//!   concatenation becomes a triple join `✶^{1,1,3'}_{3=1'}`, alternation a
//!   union, and Kleene closures a right Kleene star of the same join shape.
//!   The lowering is **total**, which is Theorem 7's witness: the
//!   differential suite, `tables e15` and the `lower-*` explain goldens run
//!   it, and anyone can POST its rendering to `/query`. It is not a second
//!   way to answer `/path`: the walk was faster on every case `tables e15`
//!   measures.
//!
//! The unit of work is one root: its product BFS yields the root's pairs
//! `(root, root, y)` sorted by `y`, and the roots are taken in increasing id
//! order, so the answer is the in-order concatenation of the roots' rows.
//! Like a reach star, that one kernel is run two ways:
//! [`eval_product`] fans the roots out across `threads` workers and
//! concatenates their parts into a [`TripleSet`], and the executor's cursor
//! walk runs one root per pull that finds its buffer empty, so a limit or an
//! SPO top-k above a `PathNfa` stops after the first roots. The roots are
//! the relation's subjects, or every node of the relation when the
//! expression accepts the empty word (only then can a node without an
//! out-edge answer).
//!
//! The walk and the lowering return the identical [`TripleSet`] — the
//! differential suite (`tests/rpq_differential.rs`) proves it against an
//! independent reference on generated graphs.
//!
//! ## Pair encoding
//!
//! An RPQ answer is a set of node pairs, but every TriAL relation is
//! ternary. A pair `(x, y)` is stored as the triple `(x, x, y)`: the
//! duplicated subject keeps the encoding deterministic (no join artefacts in
//! the middle position), makes the subject/object components carry exactly
//! the pair, and keeps SPO/OSP orderings meaningful for `?order=`/top-k.
//! Identity pairs (matched by `p*` and `p?`) range over the **nodes of the
//! queried relation** — every object that occurs as a subject or object of
//! one of its triples.

use crate::cancel::CancelToken;
use crate::cursor::{Cursor, SourceCursor};
use crate::engine::EvalStats;
use crate::parallel;
use crate::reach::{concat, EdgeGraph, Marks};
use std::collections::{HashMap, VecDeque};
use trial_core::{
    Conditions, Expr, ObjectId, OutputSpec, Pos, Result, Triple, TripleSet, Triplestore,
};
use trial_parser::PathExpr;

/// How a path query is planned: the NFA walk `/path` runs, or the TriAL\*
/// lowering that witnesses Theorem 7.
///
/// The type survives only because the layer-replay benchmark
/// (`bench/src/bin/layers.rs`) names it to plan a path the way the server
/// does; once that call goes, so does the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathStrategy {
    /// What `/path` runs: the product-NFA walk, for every expression.
    Auto,
    /// The TriAL\* [`lower`]ing, planned like any hand-written query. It has
    /// no hop counter, so it ignores `max_hops`.
    Lower,
}

impl PathStrategy {
    /// `true` when the strategy runs the NFA walk, `false` when the query
    /// lowers onto TriAL. The walk answers every expression and bound, so
    /// neither argument changes the answer.
    pub fn resolves_to_nfa(self, _path: &PathExpr, _max_hops: Option<usize>) -> bool {
        self == PathStrategy::Auto
    }
}

// ---------------------------------------------------------------------------
// Lowering onto TriAL*
// ---------------------------------------------------------------------------

/// The join condition equating all three components — used to pair each
/// triple of a relation with itself.
fn full_eq() -> Conditions {
    Conditions::new()
        .obj_eq(Pos::L1, Pos::R1)
        .obj_eq(Pos::L2, Pos::R2)
        .obj_eq(Pos::L3, Pos::R3)
}

/// Output spec for the pair encoding: `(x, x, y)` from a left row carrying
/// `x` and a right row carrying `y`.
fn pair_output() -> OutputSpec {
    OutputSpec::new(Pos::L1, Pos::L1, Pos::R3)
}

/// Composition of two pair relations: `(x,x,m) ✶^{1,1,3'}_{3=1'} (m,m,y)`
/// yields `(x,x,y)`.
fn compose(left: Expr, right: Expr) -> Expr {
    left.join(
        right,
        pair_output(),
        Conditions::new().obj_eq(Pos::L3, Pos::R1),
    )
}

/// The identity pair relation over the nodes of `relation`: `(n, n, n)` for
/// every object occurring as a subject or as an object of one of its
/// triples. Each side is a self-join pairing every triple with itself and
/// projecting one endpoint onto all three output positions.
fn ident(relation: &str) -> Expr {
    let subjects = Expr::rel(relation).join(
        Expr::rel(relation),
        OutputSpec::new(Pos::L1, Pos::L1, Pos::L1),
        full_eq(),
    );
    let objects = Expr::rel(relation).join(
        Expr::rel(relation),
        OutputSpec::new(Pos::L3, Pos::L3, Pos::L3),
        full_eq(),
    );
    subjects.union(objects)
}

/// One-or-more repetitions of a pair relation: the right Kleene star of the
/// composition join. The TriAL star includes its base, so this is exactly
/// the transitive closure `P⁺`.
fn plus(pairs: Expr) -> Expr {
    pairs.right_star(pair_output(), Conditions::new().obj_eq(Pos::L3, Pos::R1))
}

/// Compiles a path expression into a TriAL\* expression over `relation`,
/// producing the pair encoding `(x, x, y)` for every matching pair.
///
/// The lowering is total — every [`PathExpr`] shape has a TriAL\* image:
///
/// | path        | TriAL\* |
/// |-------------|---------|
/// | atom `a`    | `σ_{2=a}(E)` self-joined into pair form |
/// | `p/q`       | `P ✶^{1,1,3'}_{3=1'} Q` |
/// | `p\|q`      | `P ∪ Q` |
/// | `p+`        | `STAR(P ✶^{1,1,3'}_{3=1'})` (right star) |
/// | `p*`        | `ident ∪ p+` |
/// | `p?`        | `ident ∪ P` |
pub fn lower(path: &PathExpr, relation: &str) -> Expr {
    match path {
        PathExpr::Atom(label) => {
            let edges =
                Expr::rel(relation).select(Conditions::new().obj_eq_const(Pos::L2, label.clone()));
            edges.clone().join(edges, pair_output(), full_eq())
        }
        PathExpr::Seq(parts) => parts
            .iter()
            .map(|p| lower(p, relation))
            .reduce(compose)
            .expect("Seq has at least one part"),
        PathExpr::Alt(parts) => parts
            .iter()
            .map(|p| lower(p, relation))
            .reduce(Expr::union)
            .expect("Alt has at least one part"),
        PathExpr::Star(inner) => ident(relation).union(plus(lower(inner, relation))),
        PathExpr::Plus(inner) => plus(lower(inner, relation)),
        PathExpr::Opt(inner) => ident(relation).union(lower(inner, relation)),
    }
}

// ---------------------------------------------------------------------------
// Thompson NFA
// ---------------------------------------------------------------------------

/// A Thompson NFA over edge labels, with a single start and accept state.
///
/// States are dense indices; label transitions refer into [`Nfa::labels`]
/// (the distinct atom labels of the source expression). Epsilon closures are
/// precomputed per state — path expressions are tiny, the graphs are not.
#[derive(Debug)]
pub struct Nfa {
    labels: Vec<String>,
    /// Per state: `(label index, target state)` transitions.
    trans: Vec<Vec<(usize, usize)>>,
    /// Per state: its epsilon closure (always contains the state itself).
    closure: Vec<Vec<usize>>,
    start: usize,
    accept: usize,
}

/// NFA under construction: raw epsilon edges, closures not yet computed.
#[derive(Default)]
struct NfaBuilder {
    labels: Vec<String>,
    trans: Vec<Vec<(usize, usize)>>,
    eps: Vec<Vec<usize>>,
}

impl NfaBuilder {
    fn state(&mut self) -> usize {
        self.trans.push(Vec::new());
        self.eps.push(Vec::new());
        self.trans.len() - 1
    }

    fn label_index(&mut self, label: &str) -> usize {
        match self.labels.iter().position(|l| l == label) {
            Some(i) => i,
            None => {
                self.labels.push(label.to_owned());
                self.labels.len() - 1
            }
        }
    }

    /// Thompson construction: returns `(start, accept)` for the fragment.
    fn fragment(&mut self, path: &PathExpr) -> (usize, usize) {
        match path {
            PathExpr::Atom(label) => {
                let (s, t) = (self.state(), self.state());
                let l = self.label_index(label);
                self.trans[s].push((l, t));
                (s, t)
            }
            PathExpr::Seq(parts) => {
                let mut iter = parts.iter();
                let (s, mut t) = self.fragment(iter.next().expect("Seq has parts"));
                for p in iter {
                    let (ns, nt) = self.fragment(p);
                    self.eps[t].push(ns);
                    t = nt;
                }
                (s, t)
            }
            PathExpr::Alt(parts) => {
                let (s, t) = (self.state(), self.state());
                for p in parts {
                    let (ps, pt) = self.fragment(p);
                    self.eps[s].push(ps);
                    self.eps[pt].push(t);
                }
                (s, t)
            }
            PathExpr::Star(inner) => {
                let (s, t) = (self.state(), self.state());
                let (is, it) = self.fragment(inner);
                self.eps[s].push(is);
                self.eps[s].push(t);
                self.eps[it].push(is);
                self.eps[it].push(t);
                (s, t)
            }
            PathExpr::Plus(inner) => {
                let (is, it) = self.fragment(inner);
                let t = self.state();
                self.eps[it].push(is);
                self.eps[it].push(t);
                (is, t)
            }
            PathExpr::Opt(inner) => {
                let (s, t) = (self.state(), self.state());
                let (is, it) = self.fragment(inner);
                self.eps[s].push(is);
                self.eps[s].push(t);
                self.eps[it].push(t);
                (s, t)
            }
        }
    }
}

impl Nfa {
    /// Compiles a path expression via the Thompson construction.
    pub fn compile(path: &PathExpr) -> Nfa {
        let mut b = NfaBuilder::default();
        let (start, accept) = b.fragment(path);
        let n = b.trans.len();
        let mut closure = Vec::with_capacity(n);
        for state in 0..n {
            let mut seen = vec![false; n];
            let mut queue = VecDeque::from([state]);
            seen[state] = true;
            let mut out = Vec::new();
            while let Some(q) = queue.pop_front() {
                out.push(q);
                for &next in &b.eps[q] {
                    if !seen[next] {
                        seen[next] = true;
                        queue.push_back(next);
                    }
                }
            }
            out.sort_unstable();
            closure.push(out);
        }
        Nfa {
            labels: b.labels,
            trans: b.trans,
            closure,
            start,
            accept,
        }
    }

    /// Number of states (for explain labels and tests).
    pub fn state_count(&self) -> usize {
        self.trans.len()
    }

    /// The distinct atom labels, in first-use order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// `true` if the empty word is accepted (start's closure reaches accept).
    pub fn accepts_empty(&self) -> bool {
        self.closure[self.start].contains(&self.accept)
    }
}

// ---------------------------------------------------------------------------
// Product-graph BFS evaluation
// ---------------------------------------------------------------------------

/// The distinct nodes of a relation — every object occurring as a subject or
/// object of one of its triples, sorted. These are the BFS roots and the
/// range of identity pairs when the expression accepts the empty word,
/// matching [`lower`]'s `ident` semantics.
pub fn node_universe(base: &TripleSet) -> Vec<ObjectId> {
    let mut nodes: Vec<ObjectId> = Vec::with_capacity(base.len() * 2);
    for t in base.iter() {
        nodes.push(t.s());
        nodes.push(t.o());
    }
    nodes.sort_unstable();
    nodes.dedup();
    nodes
}

/// One path query's product graph over one relation, walked root by root:
/// the Thompson NFA, the object id of each of its labels (`None` if the
/// store has no such object), the relation's [`EdgeGraph`] and the roots in
/// increasing id order. A root's rows `(root, root, y)` come out sorted by
/// `y`, so the rows of the roots in order are the answer in SPO order.
struct Product<'b> {
    base: &'b [Triple],
    nfa: Nfa,
    labels: Vec<Option<ObjectId>>,
    graph: EdgeGraph,
    roots: Vec<ObjectId>,
    max_hops: Option<usize>,
}

/// A worker's reusable state for [`Product::close_root`], kept across roots.
struct ProductWalk {
    /// Visited product states `(node, q)`, slot `node · |states| + q`.
    visited: Marks,
    /// Every product state the walk visited, in BFS order.
    states: Vec<(ObjectId, usize)>,
    accepted: Vec<ObjectId>,
}

impl<'b> Product<'b> {
    /// `label_ids` resolves atom labels to object ids; labels absent from the
    /// map (or from `base`) simply have no transitions.
    fn new(
        base: &'b TripleSet,
        label_ids: &HashMap<String, ObjectId>,
        path: &PathExpr,
        max_hops: Option<usize>,
    ) -> Self {
        let nfa = Nfa::compile(path);
        let labels = nfa
            .labels
            .iter()
            .map(|l| label_ids.get(l).copied())
            .collect();
        // Only the empty word pairs a node with itself without an edge: any
        // other answer starts with an edge, so its root is a subject, and
        // the SPO run lists the subjects in order already.
        let roots = if nfa.accepts_empty() {
            node_universe(base)
        } else {
            let mut subjects: Vec<ObjectId> = base.iter().map(|t| t.s()).collect();
            subjects.dedup();
            subjects
        };
        Product {
            base: base.as_slice(),
            labels,
            graph: EdgeGraph::new(base.as_slice()),
            roots,
            nfa,
            max_hops,
        }
    }

    fn walk(&self) -> ProductWalk {
        ProductWalk {
            visited: Marks::new(self.graph.span * self.nfa.state_count()),
            states: Vec::new(),
            accepted: Vec::new(),
        }
    }

    /// BFS over the product of the edge graph with the NFA, from a single
    /// root. Appends `(root, root, y)` to `out`, in `y` order, for every node
    /// `y` reachable in an accepting product state within `max_hops` graph
    /// edges (unbounded when `None`). BFS explores by edge count, so the
    /// first visit to a product state is at its minimum hop depth — a plain
    /// visited set implements the bound exactly, and an accepted node is
    /// recorded once.
    fn close_root(
        &self,
        root: ObjectId,
        walk: &mut ProductWalk,
        stats: &mut EvalStats,
        out: &mut Vec<Triple>,
    ) {
        let nfa = &self.nfa;
        let slot = |node: ObjectId, q: usize| self.graph.slot(node) * nfa.state_count() + q;
        let ProductWalk {
            visited,
            states,
            accepted,
        } = walk;
        states.clear();
        for &q in &nfa.closure[nfa.start] {
            if visited.insert(slot(root, q)) {
                states.push((root, q));
            }
        }
        // `states[level..]` are the product states first reached after
        // `depth` edges, already expanded through epsilon closures.
        let (mut level, mut depth) = (0, 0);
        while level < states.len() && self.max_hops.is_none_or(|h| depth < h) {
            let end = states.len();
            for i in level..end {
                let (node, q) = states[i];
                for &(label, q2) in &nfa.trans[q] {
                    let Some(label) = self.labels[label] else {
                        continue;
                    };
                    for t in self.graph.runs.of(self.base, node, Some(label)) {
                        stats.reach_edges_traversed += 1;
                        for &q3 in &nfa.closure[q2] {
                            if visited.insert(slot(t.o(), q3)) {
                                states.push((t.o(), q3));
                            }
                        }
                    }
                }
            }
            level = end;
            depth += 1;
        }
        accepted.clear();
        for &(node, q) in states.iter() {
            visited.remove(slot(node, q));
            if q == nfa.accept {
                accepted.push(node);
            }
        }
        accepted.sort_unstable();
        stats.triples_emitted += accepted.len() as u64;
        out.extend(accepted.iter().map(|&y| Triple::new(root, root, y)));
    }
}

/// Evaluates a path expression as a product-graph BFS over the SPO run of
/// `base`, whose `(x, ℓ)` sub-runs are the `ℓ`-labelled successors of `x`,
/// fanning the roots out across `threads` workers exactly like
/// [`crate::reach::reach_star`]: each worker's rows are sorted, so the parts
/// concatenate into the result.
///
/// `label_ids` resolves atom labels to object ids; labels absent from the
/// map (or from `base`) simply have no transitions. Checks `cancel` between
/// BFS roots; on cancellation the empty set is returned and the caller is
/// expected to surface the error.
pub fn eval_product(
    base: &TripleSet,
    label_ids: &HashMap<String, ObjectId>,
    path: &PathExpr,
    max_hops: Option<usize>,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let product = &Product::new(base, label_ids, path, max_hops);
    let tasks: Vec<_> = parallel::chunk(&product.roots, threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut walk = product.walk();
                let mut out: Vec<Triple> = Vec::new();
                for &root in morsel {
                    // One product BFS per root: check between roots so a
                    // cancelled query stops mid-morsel.
                    if cancel.is_cancelled() {
                        break;
                    }
                    product.close_root(root, &mut walk, stats, &mut out);
                }
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    if cancel.is_cancelled() {
        return TripleSet::new();
    }
    TripleSet::from_sorted_vec(concat(parts))
}

/// The object ids of a path's atom labels in `store`; labels the store has
/// never seen are left out, and match no edge.
fn label_ids(store: &Triplestore, path: &PathExpr) -> HashMap<String, ObjectId> {
    path.labels()
        .into_iter()
        .filter_map(|l| store.object_id(l).map(|id| (l.to_owned(), id)))
        .collect()
}

/// Evaluates a path expression against a stored relation by
/// [`eval_product`] over its triples.
pub fn eval_on_store(
    store: &Triplestore,
    relation: &str,
    path: &PathExpr,
    max_hops: Option<usize>,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> Result<TripleSet> {
    let base = store.require_relation(relation)?;
    let label_ids = label_ids(store, path);
    let result = eval_product(base, &label_ids, path, max_hops, threads, cancel, stats);
    cancel.check()?;
    Ok(result)
}

/// The cursor walk of [`eval_on_store`]: the same pairs, streamed in SPO
/// order one root at a time. A root's product BFS runs only when the rows of
/// the previous one are all pulled, and `cancel` is checked between roots,
/// ending the stream early once it latches.
pub(crate) fn path_cursor<'a>(
    store: &'a Triplestore,
    relation: &str,
    path: &PathExpr,
    max_hops: Option<usize>,
    cancel: CancelToken,
) -> Result<impl Cursor + Send + 'a> {
    let base = store.require_relation(relation)?;
    let product = Product::new(base, &label_ids(store, path), path, max_hops);
    let mut walk = product.walk();
    let mut next = 0;
    Ok(SourceCursor::new(cancel, move |out, stats| {
        let Some(&root) = product.roots.get(next) else {
            return false;
        };
        next += 1;
        product.close_root(root, &mut walk, stats, out);
        true
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveEngine;
    use crate::Engine;
    use trial_core::TriplestoreBuilder;
    use trial_parser::parse_path;

    fn store() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        // red chain a→b→c, blue edge c→d, blue back-edge d→a (a cycle),
        // green shortcut a→c, plus an isolated red self-loop.
        b.add_triple("E", "a", "red", "b");
        b.add_triple("E", "b", "red", "c");
        b.add_triple("E", "c", "blue", "d");
        b.add_triple("E", "d", "blue", "a");
        b.add_triple("E", "a", "green", "c");
        b.add_triple("E", "x", "red", "x");
        b.finish()
    }

    fn nfa_pairs(
        store: &Triplestore,
        text: &str,
        max_hops: Option<usize>,
    ) -> Vec<(String, String)> {
        let path = parse_path(text).unwrap();
        let mut stats = EvalStats::new();
        let result = eval_on_store(
            store,
            "E",
            &path,
            max_hops,
            1,
            &CancelToken::none(),
            &mut stats,
        )
        .unwrap();
        pair_names(store, &result)
    }

    fn lowered_pairs(store: &Triplestore, text: &str) -> Vec<(String, String)> {
        let path = parse_path(text).unwrap();
        let expr = lower(&path, "E");
        let result = NaiveEngine::new().run(&expr, store).unwrap();
        pair_names(store, &result)
    }

    fn pair_names(store: &Triplestore, result: &TripleSet) -> Vec<(String, String)> {
        result
            .iter()
            .map(|t| {
                assert_eq!(t.s(), t.p(), "pair encoding must duplicate the subject");
                (
                    store.object_name(t.s()).to_owned(),
                    store.object_name(t.o()).to_owned(),
                )
            })
            .collect()
    }

    fn pairs(entries: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = entries
            .iter()
            .map(|&(a, b)| (a.to_owned(), b.to_owned()))
            .collect();
        out.sort();
        out
    }

    #[test]
    fn atom_matches_single_edges() {
        let s = store();
        let mut got = nfa_pairs(&s, "green", None);
        got.sort();
        assert_eq!(got, pairs(&[("a", "c")]));
    }

    #[test]
    fn concatenation_composes() {
        let s = store();
        let mut got = nfa_pairs(&s, "red/red", None);
        got.sort();
        assert_eq!(got, pairs(&[("a", "c"), ("x", "x")]));
    }

    #[test]
    fn alternation_unions() {
        let s = store();
        let mut got = nfa_pairs(&s, "green|blue", None);
        got.sort();
        assert_eq!(got, pairs(&[("a", "c"), ("c", "d"), ("d", "a")]));
    }

    #[test]
    fn star_includes_identity() {
        let s = store();
        let got = nfa_pairs(&s, "green*", None);
        // Identity on all five nodes, plus the green edge.
        assert_eq!(got.len(), 6);
        assert!(got.contains(&("d".to_owned(), "d".to_owned())));
        assert!(got.contains(&("a".to_owned(), "c".to_owned())));
    }

    #[test]
    fn max_hops_bounds_path_length() {
        let s = store();
        // (red|blue|green)+ within 1 hop = exactly the edge set.
        let got = nfa_pairs(&s, "(red|blue|green)+", Some(1));
        assert_eq!(got.len(), 6);
        // Unbounded closure on the a→b→c→d→a cycle reaches everywhere.
        let unbounded = nfa_pairs(&s, "(red|blue|green)+", None);
        assert!(unbounded.contains(&("a".to_owned(), "a".to_owned())));
        assert!(unbounded.len() > got.len());
        // A bound at least as long as any simple path is the same as none.
        let wide = nfa_pairs(&s, "(red|blue|green)+", Some(64));
        assert_eq!(wide, unbounded);
        // Zero hops: only the empty word can match, and `+` rejects it.
        assert!(nfa_pairs(&s, "(red|blue|green)+", Some(0)).is_empty());
        assert_eq!(nfa_pairs(&s, "red*", Some(0)).len(), 5);
    }

    #[test]
    fn unknown_labels_match_nothing() {
        let s = store();
        assert!(nfa_pairs(&s, "purple", None).is_empty());
        // ...but closures over them still produce identity pairs.
        assert_eq!(nfa_pairs(&s, "purple*", None).len(), 5);
    }

    #[test]
    fn lowering_agrees_with_nfa() {
        let s = store();
        for text in [
            "red",
            "red/red",
            "red/blue",
            "green|blue",
            "red*",
            "red+",
            "blue?",
            "(red|blue)+",
            "green/(red|blue)*",
            "(red/red)?",
            "red+/blue",
        ] {
            let mut nfa = nfa_pairs(&s, text, None);
            let mut lowered = lowered_pairs(&s, text);
            nfa.sort();
            lowered.sort();
            assert_eq!(nfa, lowered, "strategies disagree on `{text}`");
        }
    }

    #[test]
    fn parallel_roots_match_sequential() {
        let s = store();
        let run = |text: &str, threads| {
            let mut stats = EvalStats::new();
            let path = parse_path(text).unwrap();
            let result = eval_on_store(
                &s,
                "E",
                &path,
                None,
                threads,
                &CancelToken::none(),
                &mut stats,
            );
            (result.unwrap(), stats)
        };
        let (seq, _) = run("(red|blue)+/green?", 1);
        for threads in [1usize, 2, 4] {
            assert_eq!(run("(red|blue)+/green?", threads).0, seq);
            // One product BFS per root: the same work at every degree.
            let (plus, stats) = run("(red|blue)+", threads);
            assert_eq!(plus.len(), 17);
            assert_eq!(
                (stats.reach_edges_traversed, stats.triples_emitted),
                (17, 17),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn cancelled_token_surfaces_error() {
        let s = store();
        let cancel = CancelToken::manual();
        cancel.cancel(crate::cancel::CancelReason::Shutdown);
        let mut stats = EvalStats::new();
        let err = eval_on_store(
            &s,
            "E",
            &parse_path("red*").unwrap(),
            None,
            1,
            &cancel,
            &mut stats,
        );
        assert!(err.is_err());
    }

    #[test]
    fn unknown_relation_errors() {
        let s = store();
        let mut stats = EvalStats::new();
        assert!(eval_on_store(
            &s,
            "nope",
            &parse_path("red").unwrap(),
            None,
            1,
            &CancelToken::none(),
            &mut stats
        )
        .is_err());
    }

    #[test]
    fn nfa_shape_sanity() {
        let nfa = Nfa::compile(&parse_path("a/(b|c)*").unwrap());
        assert_eq!(nfa.labels(), &["a", "b", "c"]);
        assert!(!nfa.accepts_empty());
        assert!(Nfa::compile(&parse_path("a*").unwrap()).accepts_empty());
        assert!(Nfa::compile(&parse_path("a?").unwrap()).accepts_empty());
        assert!(!Nfa::compile(&parse_path("a+").unwrap()).accepts_empty());
    }
}
