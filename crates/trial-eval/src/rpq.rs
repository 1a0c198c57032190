//! Regular path queries over the triplestore (Section 6 of the paper).
//!
//! The paper's central theorem is that TriAL* captures regular path
//! queries. This module makes the claim executable in both directions:
//!
//! * [`eval_on_store`] evaluates a [`PathExpr`] as a BFS over the product of
//!   the edge graph with the position automaton ([`Nfa`]) of the expression
//!   — the classic PTIME RPQ procedure, and the one evaluator behind the
//!   server's `/path` (its plan is a [`PlanNode::PathNfa`](crate::PlanNode::PathNfa)
//!   leaf). It walks the relation's SPO run through the same
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
//! [`eval_on_store`] fans the roots out across `threads` workers, and the
//! executor's cursor walk runs one root per pull that finds its buffer
//! empty, so a limit or an SPO top-k above a `PathNfa` stops after the
//! first roots. The roots are the relation's subjects, or every node of the
//! relation when the expression accepts the empty word (only then can a
//! node without an out-edge answer).
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
use crate::reach::{close_sources, EdgeGraph, Marks};
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
///
/// A closure directly over a closure lowers as the one closure they amount
/// to: `+` over `+` is `+`, `?` over `?` is `?`, and every other pair is
/// `*`, so `p**` is one star fixpoint rather than a star over `ident ∪ p+`.
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
        PathExpr::Star(_) | PathExpr::Plus(_) | PathExpr::Opt(_) => {
            // The stack may skip its operand if any level may, and repeat it
            // if any level may.
            let (mut skip, mut repeat, mut operand) = (false, false, path);
            while let Some((s, r, inner)) = closure(operand) {
                (skip, repeat, operand) = (skip || s, repeat || r, inner);
            }
            let once = lower(operand, relation);
            let body = if repeat { plus(once) } else { once };
            if skip {
                ident(relation).union(body)
            } else {
                body
            }
        }
    }
}

/// A closure's operand with whether the closure may skip it and whether it
/// may repeat it; `None` when `path` is not a closure.
fn closure(path: &PathExpr) -> Option<(bool, bool, &PathExpr)> {
    match path {
        PathExpr::Star(inner) => Some((true, true, inner)),
        PathExpr::Plus(inner) => Some((false, true, inner)),
        PathExpr::Opt(inner) => Some((true, false, inner)),
        PathExpr::Atom(_) | PathExpr::Seq(_) | PathExpr::Alt(_) => None,
    }
}

// ---------------------------------------------------------------------------
// Position automaton
// ---------------------------------------------------------------------------

/// The position (Glushkov) automaton of a path expression over edge labels.
///
/// A state is one atom occurrence of the expression, read as "about to read
/// this atom", plus an accepting state that reads nothing. One pass over
/// the expression computes whether the empty word matches, which atoms a
/// match can start with (`first`) and end with (`last`), and which states
/// follow each atom. There are no moves on the empty word, so stacked
/// closures compile to the automaton of the single closure: `a**`, `(a?)+`
/// and `a*` have one state for `a` alike. The sets are bit rows, one bit
/// per state.
#[derive(Debug)]
pub struct Nfa {
    /// The distinct atom labels, in first-use order.
    labels: Vec<String>,
    /// Per atom, in source order: the index of its label in `labels`.
    atoms: Vec<usize>,
    /// Per atom: the atoms that can be read right after it, plus bit
    /// `atoms.len()`, the accepting state, if a match can end with it.
    follow: Vec<Vec<u64>>,
    /// The whole expression's `nullable`, `first` and `last`.
    root: Positions,
}

/// A sub-expression's `nullable` and its `first` and `last` atoms as bit
/// rows (bits past a row's end are clear); its follow pairs go straight
/// into [`Nfa::follow`].
#[derive(Debug, Default)]
struct Positions {
    nullable: bool,
    first: Vec<u64>,
    last: Vec<u64>,
}

/// The set bits of a bit row, in increasing order.
fn ones(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let rest = |&x: &u64| Some(x & (x - 1)).filter(|&x| x != 0);
        std::iter::successors(Some(word).filter(|&x| x != 0), rest)
            .map(move |x| w * 64 + x.trailing_zeros() as usize)
    })
}

/// The bit row holding only `bit`.
fn singleton(bit: usize) -> Vec<u64> {
    let mut row = vec![0; bit / 64 + 1];
    row[bit / 64] = 1 << (bit % 64);
    row
}

fn union_into(row: &mut Vec<u64>, other: &[u64]) {
    row.resize(row.len().max(other.len()), 0);
    row.iter_mut().zip(other).for_each(|(a, b)| *a |= b);
}

impl Nfa {
    /// Compiles a path expression into its position automaton.
    pub fn compile(path: &PathExpr) -> Nfa {
        let mut nfa = Nfa {
            labels: Vec::new(),
            atoms: Vec::new(),
            follow: Vec::new(),
            root: Positions::default(),
        };
        let root = nfa.positions(path);
        nfa.link(&root.last, &singleton(nfa.atoms.len()));
        nfa.root = root;
        nfa
    }

    /// Numbers the atoms of `path` after those seen so far and links their
    /// follow rows.
    fn positions(&mut self, path: &PathExpr) -> Positions {
        match path {
            PathExpr::Atom(label) => {
                let row = singleton(self.atoms.len());
                let known = self.labels.iter().position(|l| l == label);
                self.atoms.push(known.unwrap_or(self.labels.len()));
                if known.is_none() {
                    self.labels.push(label.to_owned());
                }
                self.follow.push(Vec::new());
                Positions {
                    nullable: false,
                    first: row.clone(),
                    last: row,
                }
            }
            PathExpr::Seq(parts) => {
                let mut seq = self.positions(&parts[0]);
                for part in &parts[1..] {
                    let next = self.positions(part);
                    self.link(&seq.last, &next.first);
                    if seq.nullable {
                        union_into(&mut seq.first, &next.first);
                    }
                    if !next.nullable {
                        seq.last.fill(0);
                    }
                    union_into(&mut seq.last, &next.last);
                    seq.nullable &= next.nullable;
                }
                seq
            }
            PathExpr::Alt(parts) => {
                let mut alt = self.positions(&parts[0]);
                for part in &parts[1..] {
                    let next = self.positions(part);
                    union_into(&mut alt.first, &next.first);
                    union_into(&mut alt.last, &next.last);
                    alt.nullable |= next.nullable;
                }
                alt
            }
            PathExpr::Star(inner) | PathExpr::Plus(inner) => {
                let inner = self.positions(inner);
                self.link(&inner.last, &inner.first);
                let nullable = inner.nullable || matches!(path, PathExpr::Star(_));
                Positions { nullable, ..inner }
            }
            PathExpr::Opt(inner) => Positions {
                nullable: true,
                ..self.positions(inner)
            },
        }
    }

    /// Lets every atom of `from` be followed by every state of `to`.
    fn link(&mut self, from: &[u64], to: &[u64]) {
        for atom in ones(from) {
            union_into(&mut self.follow[atom], to);
        }
    }

    /// Number of states: one per atom, plus the accepting state.
    pub fn state_count(&self) -> usize {
        self.atoms.len() + 1
    }

    /// The distinct atom labels, in first-use order.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// `true` if the empty word is accepted.
    pub fn accepts_empty(&self) -> bool {
        self.root.nullable
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
/// the position automaton, the object id of the label each state reads
/// (`None` for the accepting state and for labels the store has never
/// seen, which match no edge), the relation's [`EdgeGraph`] and the roots
/// in increasing id order. A root's rows `(root, root, y)` come out
/// sorted by `y`, so the rows of the roots in order are the answer in SPO
/// order.
struct Product<'b> {
    base: &'b [Triple],
    nfa: Nfa,
    reads: Vec<Option<ObjectId>>,
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
    fn new(
        store: &Triplestore,
        base: &'b TripleSet,
        path: &PathExpr,
        max_hops: Option<usize>,
    ) -> Self {
        let nfa = Nfa::compile(path);
        let atoms = nfa.atoms.iter().map(|&l| store.object_id(&nfa.labels[l]));
        let reads = atoms.chain([None]).collect();
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
            reads,
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

    /// BFS over the product of the edge graph with the automaton, from a
    /// single root. Appends `(root, root, y)` to `out`, in `y` order, for
    /// every node `y` a match ends at within `max_hops` graph edges
    /// (unbounded when `None`). Each visited state reads its atom's
    /// `(node, ℓ)` run once. BFS explores by edge count, so the first visit
    /// to a product state is at its minimum hop depth — a plain visited set
    /// implements the bound exactly, and an accepted node is recorded once
    /// however many last atoms reach it.
    fn close_root(
        &self,
        root: ObjectId,
        walk: &mut ProductWalk,
        stats: &mut EvalStats,
        out: &mut Vec<Triple>,
    ) {
        let nfa = &self.nfa;
        let accept = nfa.atoms.len();
        let slot = |node: ObjectId, q: usize| self.graph.slot(node) * nfa.state_count() + q;
        let ProductWalk {
            visited,
            states,
            accepted,
        } = walk;
        states.clear();
        let start = ones(&nfa.root.first).chain(nfa.accepts_empty().then_some(accept));
        for q in start {
            visited.insert(slot(root, q));
            states.push((root, q));
        }
        // `states[level..]` are the product states first reached after
        // `depth` edges.
        let (mut level, mut depth) = (0, 0);
        while level < states.len() && self.max_hops.is_none_or(|h| depth < h) {
            let end = states.len();
            for i in level..end {
                let (node, q) = states[i];
                let Some(label) = self.reads[q] else {
                    continue;
                };
                for t in self.graph.runs.of(self.base, node, Some(label)) {
                    stats.reach_edges_traversed += 1;
                    for q2 in ones(&nfa.follow[q]) {
                        if visited.insert(slot(t.o(), q2)) {
                            states.push((t.o(), q2));
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
            if q == accept {
                accepted.push(node);
            }
        }
        accepted.sort_unstable();
        stats.triples_emitted += accepted.len() as u64;
        out.extend(accepted.iter().map(|&y| Triple::new(root, root, y)));
    }
}

/// Evaluates a path expression against a stored relation as a product-graph
/// BFS over its SPO run, whose `(x, ℓ)` sub-runs are the `ℓ`-labelled
/// successors of `x`, fanning the roots out across `threads` workers like
/// [`crate::reach::reach_star`]. Atom labels the store has never seen match
/// no edge. Checks `cancel` between BFS roots and fails once it latches.
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
    let product = &Product::new(store, base, path, max_hops);
    let result = close_sources(
        &product.roots,
        threads,
        cancel,
        stats,
        || product.walk(),
        |&root, walk, stats, out| product.close_root(root, walk, stats, out),
    );
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
    let product = Product::new(store, base, path, max_hops);
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

    /// `(state_count, nullable, first, last, follow rows)`: everything the
    /// walk reads off an automaton.
    type Shape = (usize, bool, Vec<usize>, Vec<usize>, Vec<Vec<usize>>);

    fn shape(text: &str) -> Shape {
        let nfa = Nfa::compile(&parse_path(text).unwrap());
        (
            nfa.state_count(),
            nfa.accepts_empty(),
            ones(&nfa.root.first).collect(),
            ones(&nfa.root.last).collect(),
            (0..nfa.atoms.len())
                .map(|a| ones(&nfa.follow[a]).collect())
                .collect(),
        )
    }

    #[test]
    fn nfa_shape_sanity() {
        let nfa = Nfa::compile(&parse_path("a/(b|c)*").unwrap());
        assert_eq!(nfa.labels(), &["a", "b", "c"]);
        assert!(!nfa.accepts_empty());
        assert!(Nfa::compile(&parse_path("a*").unwrap()).accepts_empty());
        assert!(Nfa::compile(&parse_path("a?").unwrap()).accepts_empty());
        assert!(!Nfa::compile(&parse_path("a+").unwrap()).accepts_empty());
        // Atoms 0 = a, 1 = b, 2 = c; state 3 accepts.
        let (first, last, follow) = (vec![0], vec![0, 1, 2], vec![vec![1, 2, 3]; 3]);
        assert_eq!(shape("a/(b|c)*"), (4, false, first, last, follow));
        // A nullable prefix lets the next part start a match too.
        let follow = vec![vec![1, 2], vec![2], vec![3]];
        assert_eq!(shape("a?/b?/c"), (4, false, vec![0, 1, 2], vec![2], follow));
        // Every occurrence is its own state, even of a repeated label.
        let nfa = Nfa::compile(&parse_path("a/a|a").unwrap());
        assert_eq!(
            (nfa.state_count(), nfa.labels()),
            (4, &["a".to_owned()][..])
        );
    }

    #[test]
    fn stacked_closures_compile_to_the_single_closure() {
        for op in ["*", "+", "?"] {
            let single = shape(&format!("next{op}"));
            assert_eq!(single.0, 2, "one state for `next`, plus the start");
            for n in [1, 7, 62] {
                let stacked = format!("next{}", op.repeat(n));
                assert_eq!(shape(&stacked), single, "`next` + {n} `{op}`");
            }
        }
        let star = shape("next*");
        for text in ["(next?)+", "(next+)?", "(next+)*", "((next*)?)+"] {
            assert_eq!(shape(text), star, "`{text}`");
        }
    }

    #[test]
    fn stacked_closures_walk_like_the_single_closure() {
        let mut b = TriplestoreBuilder::new();
        for i in 0..40 {
            b.add_triple("E", format!("n{i}"), "next", format!("n{}", i + 1));
        }
        let s = b.finish();
        let run = |text: &str, max_hops| {
            let mut stats = EvalStats::new();
            let path = parse_path(text).unwrap();
            let none = CancelToken::none();
            let rows = eval_on_store(&s, "E", &path, max_hops, 1, &none, &mut stats).unwrap();
            (rows, stats.reach_edges_traversed, stats.triples_emitted)
        };
        let stacked = format!("next{}", "*".repeat(63));
        for max_hops in [None, Some(5)] {
            for (single, same) in [
                ("next*", stacked.as_str()),
                ("next*", "(next?)+"),
                ("next*", "next**"),
                ("next+", "next++"),
                ("next?", "next???"),
            ] {
                assert_eq!(run(same, max_hops), run(single, max_hops), "`{same}`");
            }
        }
        // Root n_i reads the 40 - i edges below it and answers 41 - i rows.
        let (rows, edges, emitted) = run(&stacked, None);
        assert_eq!((rows.len(), edges, emitted), (861, 820, 861));
    }

    #[test]
    fn stacked_closures_lower_to_the_single_closure() {
        let lowered = |text: &str| lower(&parse_path(text).unwrap(), "E");
        for text in ["next**", "(next?)+", "(next+)?", "(next+)*"] {
            assert_eq!(lowered(text), lowered("next*"), "`{text}`");
        }
        assert_eq!(lowered("next++"), lowered("next+"));
        assert_eq!(lowered("next??"), lowered("next?"));
        // Only a closure directly over a closure collapses.
        assert_ne!(lowered("(next*/next)*"), lowered("(next/next)*"));
    }

    #[test]
    fn a_wide_alternation_under_stacked_stars_has_one_state_per_atom() {
        let atoms: Vec<String> = (0..192).map(|i| format!("a{i}")).collect();
        let body = format!("({}){}", atoms.join("|"), "*".repeat(62));
        assert_eq!(body.len(), 913);
        // Every atom starts and ends a match and follows every atom, across
        // the four words of each follow row.
        let all: Vec<usize> = (0..192).collect();
        let follow = vec![(0..=192).collect::<Vec<_>>(); 192];
        assert_eq!(shape(&body), (193, true, all.clone(), all, follow));
    }
}
