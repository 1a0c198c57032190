//! The specialised reachability procedures of Proposition 5.
//!
//! reachTA⁼ restricts Kleene stars to the two graph-database reachability
//! shapes:
//!
//! * `(R ✶^{1,2,3'}_{3=1'})^*` — "reachable by an arbitrary path": treat
//!   every triple `(x, ℓ, y)` as an edge `x → y` and extend each triple's
//!   endpoint along arbitrary paths;
//! * `(R ✶^{1,2,3'}_{3=1', 2=2'})^*` — "reachable by a path labelled with the
//!   same element": as above, but every step must carry the same middle
//!   element as the original triple.
//!
//! The paper's Procedures 3 and 4 compute these with a reachability matrix
//! plus Warshall's transitive closure, giving `O(|e|·|O|·|T|)`. We obtain
//! the same bound with one search per source, which is also far cheaper in
//! practice on sparse data — the `e5` table of the `trial-bench` `tables`
//! binary compares it against the generic fixpoint engines.
//!
//! Both shapes are one kernel, `close_group`. A **source** is an `(x, ℓ)`
//! group of the base's SPO run: one multi-source BFS from the group's
//! endpoints yields every `(x, ℓ, w)` of the closure, sorted and distinct.
//! The groups come in SPO order, so the closure is the in-order
//! concatenation of its groups' rows, and the kernel has two walks over it:
//!
//! * [`reach_star`], the set walk, chunks the groups across `threads`
//!   workers and concatenates their parts into the result as they are
//!   (`close_sources`, which the path walk of [`crate::rpq`] shares);
//! * `reach_cursor`, the cursor walk, closes one group per pull that finds
//!   its buffer empty, so a limit or an SPO top-k above it stops after the
//!   first few sources.
//!
//! The edge graph is the base's own SPO run: a [`SubjectRuns`] offset table,
//! built per star in one pass, hands out the successors of `x` (or only its
//! `ℓ`-labelled ones) as a sub-slice of the run. A walk's visited set is a
//! bitset over the base's id span (`Marks`), reused from one source to the
//! next, so nothing is cached and nothing outlives the query.

use crate::cancel::CancelToken;
use crate::cursor::{Cursor, SourceCursor};
use crate::engine::EvalStats;
use crate::parallel;
use trial_core::{ObjectId, SubjectRuns, Triple, TripleSet};

/// A visited set over the slots `0..len`, one bit per slot, reused from one
/// walk to the next: a walk unmarks the slots it marked before it ends, so
/// starting the next one costs nothing and a walk costs what it touches,
/// not the length of the range.
pub(crate) struct Marks {
    words: Vec<u64>,
}

impl Marks {
    pub(crate) fn new(len: usize) -> Marks {
        Marks {
            words: vec![0; len.div_ceil(64)],
        }
    }

    /// Marks `slot`; `true` if it was not marked yet.
    pub(crate) fn insert(&mut self, slot: usize) -> bool {
        let (word, bit) = (&mut self.words[slot / 64], 1 << (slot % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Unmarks `slot`.
    pub(crate) fn remove(&mut self, slot: usize) {
        self.words[slot / 64] &= !(1 << (slot % 64));
    }
}

/// The edge graph of an SPO-sorted base, read as `x → y` per triple
/// `(x, ℓ, y)`: its [`SubjectRuns`] successor lookup, plus the id span of
/// its nodes (every subject and object), which numbers the slots of a
/// walk's [`Marks`].
pub(crate) struct EdgeGraph {
    pub(crate) runs: SubjectRuns,
    lo: usize,
    /// How many ids `[lo, lo + span)` covers; 0 for an empty base.
    pub(crate) span: usize,
}

impl EdgeGraph {
    pub(crate) fn new(base: &[Triple]) -> EdgeGraph {
        let ids = base.iter().flat_map(|t| [t.s().index(), t.o().index()]);
        let (lo, hi) = ids.fold((usize::MAX, 0), |(lo, hi), id| (lo.min(id), hi.max(id)));
        EdgeGraph {
            runs: SubjectRuns::new(base),
            lo,
            // Empty when the base is: `lo` is then past `hi`.
            span: (hi + 1).saturating_sub(lo),
        }
    }

    /// The slot of a node of the base, `0..span`.
    pub(crate) fn slot(&self, node: ObjectId) -> usize {
        node.index() - self.lo
    }
}

/// `true` when two adjacent base triples belong to one `(x, ℓ)` source.
fn same_source(a: &Triple, b: &Triple) -> bool {
    a.s() == b.s() && a.p() == b.p()
}

/// A worker's reusable state for [`close_group`], carried from group to group.
struct Walk {
    marks: Marks,
    /// The group's endpoints, then every node reached from them: both the
    /// BFS queue and, once sorted, the group's output objects.
    reached: Vec<ObjectId>,
}

impl Walk {
    fn new(graph: &EdgeGraph) -> Walk {
        Walk {
            marks: Marks::new(graph.span),
            reached: Vec::new(),
        }
    }
}

/// Closes one source: `group` is the non-empty run of base triples
/// `(x, ℓ, z)` sharing `x` and `ℓ`, and this appends `(x, ℓ, w)` to `out`,
/// in `w` order, for every endpoint `z` and every node `w` reachable from
/// one in one or more steps of `graph` (along `ℓ`-edges only when
/// `same_label`). Every node is expanded once, endpoints included, so
/// `reach_edges_traversed` grows by the out-degrees of the reached nodes;
/// `triples_emitted` counts the rows the closure adds to the group.
fn close_group(
    group: &[Triple],
    base: &[Triple],
    graph: &EdgeGraph,
    same_label: bool,
    walk: &mut Walk,
    stats: &mut EvalStats,
    out: &mut Vec<Triple>,
) {
    let (x, l) = (group[0].s(), group[0].p());
    let label = same_label.then_some(l);
    walk.reached.clear();
    for t in group {
        walk.marks.insert(graph.slot(t.o()));
        walk.reached.push(t.o());
    }
    let mut next = 0;
    while let Some(&node) = walk.reached.get(next) {
        next += 1;
        for t in graph.runs.of(base, node, label) {
            stats.reach_edges_traversed += 1;
            if walk.marks.insert(graph.slot(t.o())) {
                walk.reached.push(t.o());
            }
        }
    }
    stats.triples_emitted += (walk.reached.len() - group.len()) as u64;
    walk.reached.sort_unstable();
    for &w in &walk.reached {
        walk.marks.remove(graph.slot(w));
        out.push(Triple::new(x, l, w));
    }
}

/// Procedures 3 and 4: computes `(base ✶^{1,2,3'}_{3=1'})^*`, or with
/// `same_label` the closure `(base ✶^{1,2,3'}_{3=1', 2=2'})^*`.
///
/// Every result triple is either an original triple `(x, ℓ, z)` or a triple
/// `(x, ℓ, w)` such that `(x, ℓ, z) ∈ base` and `w` is reachable from `z`
/// (in one or more steps) in the edge graph of `base` — for `same_label`,
/// along edges whose middle element is `ℓ` only.
///
/// Each `(x, ℓ)` source is closed independently, so the counters are exact
/// sums and the result is the same at every thread count. On cancellation
/// the caller is expected to surface the error.
pub fn reach_star(
    base: &TripleSet,
    same_label: bool,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let rows = base.as_slice();
    let graph = &EdgeGraph::new(rows);
    let groups: Vec<&[Triple]> = rows.chunk_by(same_source).collect();
    close_sources(
        &groups,
        threads,
        cancel,
        stats,
        || Walk::new(graph),
        |group, walk, stats, out| close_group(group, rows, graph, same_label, walk, stats, out),
    )
}

/// The set walk of a per-source kernel: each of up to `threads` workers
/// runs `close` over its share of `sources` with one `walk()` state,
/// checking `cancel` between sources. Sources come in SPO order and close
/// to sorted rows, so the parts concatenate into the result (empty on
/// cancellation).
pub(crate) fn close_sources<S: Sync, W>(
    sources: &[S],
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
    walk: impl Fn() -> W + Sync,
    close: impl Fn(&S, &mut W, &mut EvalStats, &mut Vec<Triple>) + Sync,
) -> TripleSet {
    let (walk, close) = (&walk, &close);
    let tasks: Vec<_> = parallel::chunk(sources, threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut state = walk();
                let mut out: Vec<Triple> = Vec::new();
                for source in morsel {
                    if cancel.is_cancelled() {
                        break;
                    }
                    close(source, &mut state, stats, &mut out);
                }
                out
            }
        })
        .collect();
    let mut parts = parallel::run_tasks(threads, tasks, cancel, stats).into_iter();
    if cancel.is_cancelled() {
        return TripleSet::new();
    }
    let mut rows = parts.next().unwrap_or_default();
    for part in parts {
        rows.extend(part);
    }
    TripleSet::from_sorted_vec(rows)
}

/// The cursor walk of [`reach_star`]: the same closure, streamed in SPO
/// order one `(x, ℓ)` source at a time. It owns its base, closes a source
/// only when the rows of the previous one are all pulled, and checks
/// `cancel` between sources, ending early once it latches.
pub(crate) fn reach_cursor(
    base: TripleSet,
    same_label: bool,
    cancel: CancelToken,
) -> impl Cursor + Send {
    let graph = EdgeGraph::new(base.as_slice());
    let mut walk = Walk::new(&graph);
    let mut next = 0;
    SourceCursor::new(cancel, move |out, stats| {
        let rows = base.as_slice();
        let Some(group) = rows[next..].chunk_by(same_source).next() else {
            return false;
        };
        next += group.len();
        close_group(group, rows, &graph, same_label, &mut walk, stats, out);
        true
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::naive::NaiveEngine;
    use trial_core::builder::queries;
    use trial_core::{Triplestore, TriplestoreBuilder};

    fn base(store: &Triplestore) -> TripleSet {
        store.require_relation("E").unwrap().clone()
    }

    fn plain(base: &TripleSet, stats: &mut EvalStats) -> TripleSet {
        reach_star(base, false, 1, &CancelToken::none(), stats)
    }

    fn same_label(base: &TripleSet, stats: &mut EvalStats) -> TripleSet {
        reach_star(base, true, 1, &CancelToken::none(), stats)
    }

    fn labelled_chain() -> Triplestore {
        let mut b = TriplestoreBuilder::new();
        // Two interleaved labelled chains plus a cycle.
        b.add_triple("E", "a", "red", "b");
        b.add_triple("E", "b", "red", "c");
        b.add_triple("E", "c", "blue", "d");
        b.add_triple("E", "d", "blue", "a");
        b.add_triple("E", "x", "red", "x"); // self-loop
        b.finish()
    }

    #[test]
    fn plain_reach_matches_generic_star() {
        let store = labelled_chain();
        let naive = NaiveEngine::new()
            .run(&queries::reach_forward("E"), &store)
            .unwrap();
        let mut stats = EvalStats::new();
        let fast = plain(&base(&store), &mut stats);
        assert_eq!(naive, fast);
        assert!(stats.reach_edges_traversed > 0);
    }

    #[test]
    fn same_label_reach_matches_generic_star() {
        let store = labelled_chain();
        let naive = NaiveEngine::new()
            .run(&queries::reach_same_label("E"), &store)
            .unwrap();
        let mut stats = EvalStats::new();
        let fast = same_label(&base(&store), &mut stats);
        assert_eq!(naive, fast);
    }

    #[test]
    fn plain_reach_follows_cycles() {
        let store = labelled_chain();
        let mut stats = EvalStats::new();
        let fast = plain(&base(&store), &mut stats);
        // a→b→c→d→a is a cycle, so (a, red, a) is derivable:
        // (a, red, b) extended along b→c→d→a.
        let t = store.triple_by_names("a", "red", "a").unwrap();
        assert!(fast.contains(&t));
        // The self-loop triple stays a self-loop.
        let x = store.triple_by_names("x", "red", "x").unwrap();
        assert!(fast.contains(&x));
    }

    #[test]
    fn same_label_reach_respects_labels() {
        let store = labelled_chain();
        let mut stats = EvalStats::new();
        let fast = same_label(&base(&store), &mut stats);
        // (a, red, c) is reachable entirely through red edges.
        assert!(fast.contains(&store.triple_by_names("a", "red", "c").unwrap()));
        // (a, red, d) would need the blue edge c→d, so it must be absent.
        assert!(!fast.contains(&store.triple_by_names("a", "red", "d").unwrap()));
        // But the plain closure does contain it.
        let mut stats = EvalStats::new();
        let all = plain(&base(&store), &mut stats);
        assert!(all.contains(&store.triple_by_names("a", "red", "d").unwrap()));
    }

    #[test]
    fn walk_counters_are_pinned_at_every_thread_count() {
        let b = base(&labelled_chain());
        let mut stats = EvalStats::new();
        let expected = [plain(&b, &mut stats), same_label(&b, &mut stats)];
        // `(same_label, edges traversed, triples emitted)`, one BFS per
        // `(x, ℓ)` source, which expands each reached node once, endpoints
        // included. Plain: the four cycle sources (a,red), (b,red),
        // (c,blue), (d,blue) each reach all of a, b, c, d over 4 edges and
        // add 3 rows to their one base row; (x,red) crosses its self-loop
        // once and adds nothing: 4·4 + 1 = 17 edges, 4·3 = 12 rows.
        // Same label: (a,red) crosses b→c and adds (a,red,c), (c,blue)
        // crosses d→a and adds (c,blue,a), (x,red) crosses its self-loop,
        // and (b,red), (d,blue) have no edge of their label: 3 edges, 2
        // rows. (Rows that repeat a base triple are not emitted work.)
        for threads in [1usize, 2, 4] {
            for (same, edges, emitted) in [(false, 17, 12), (true, 3, 2)] {
                let mut par = EvalStats::new();
                let result = reach_star(&b, same, threads, &CancelToken::none(), &mut par);
                assert_eq!(result, expected[usize::from(same)]);
                assert_eq!(
                    (par.reach_edges_traversed, par.triples_emitted),
                    (edges, emitted),
                    "same_label={same} threads={threads}"
                );
                assert_eq!(par.parallel_morsels > 0, threads > 1, "morsels must run");
            }
        }
        // Empty and singleton bases survive partitioning.
        let mut s = EvalStats::new();
        assert!(reach_star(&TripleSet::new(), false, 4, &CancelToken::none(), &mut s).is_empty());
        let single: TripleSet = [b.as_slice()[0]].into_iter().collect();
        assert_eq!(
            plain(&single, &mut s),
            reach_star(&single, false, 4, &CancelToken::none(), &mut s)
        );
    }

    #[test]
    fn empty_base_yields_empty_result() {
        let mut stats = EvalStats::new();
        assert!(plain(&TripleSet::new(), &mut stats).is_empty());
        assert!(same_label(&TripleSet::new(), &mut stats).is_empty());
        assert_eq!(stats.reach_edges_traversed, 0);
    }

    #[test]
    fn star_base_is_always_contained() {
        let store = labelled_chain();
        let b = base(&store);
        let mut stats = EvalStats::new();
        let all = plain(&b, &mut stats);
        let same = same_label(&b, &mut stats);
        for t in b.iter() {
            assert!(all.contains(t));
            assert!(same.contains(t));
        }
        // The same-label closure is always a subset of the plain closure.
        assert!(same.iter().all(|t| all.contains(t)));
    }
}
