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
//! the same bound with one BFS per source, which is also far cheaper in
//! practice on sparse data — the `e5` table of the `trial-bench` `tables`
//! binary compares it against the generic fixpoint engines.
//!
//! Both shapes are one walk, [`reach_star`]. The edge graph is the base's own
//! SPO run: a [`SubjectRuns`] offset table, built per star in one pass, hands
//! out the successors of `x` (or only its `ℓ`-labelled ones) as a sub-slice
//! of the run, so nothing is cached and nothing outlives the query.

use crate::cancel::CancelToken;
use crate::engine::EvalStats;
use crate::parallel;
use std::collections::{HashMap, HashSet, VecDeque};
use trial_core::{ObjectId, SubjectRuns, Triple, TripleSet};

/// A BFS root: the edge label it is restricted to, if any, and its start.
type Root = (Option<ObjectId>, ObjectId);

/// Objects reachable from `start` in **one or more** steps along `runs`,
/// following only `label`-labelled edges when a label is given.
fn reachable_from(
    start: ObjectId,
    label: Option<ObjectId>,
    runs: &SubjectRuns<'_>,
    stats: &mut EvalStats,
) -> Vec<ObjectId> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    // `start` is expanded once, up front, without being marked seen: it is
    // only included if a cycle leads back to it (the closure has no implicit
    // ε step), and reaching it again records it but never re-queues it.
    let mut queue: VecDeque<ObjectId> = VecDeque::from([start]);
    while let Some(node) = queue.pop_front() {
        for t in runs.of(node, label) {
            stats.reach_edges_traversed += 1;
            if seen.insert(t.o()) && t.o() != start {
                queue.push_back(t.o());
            }
        }
    }
    let mut out: Vec<ObjectId> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Procedures 3 and 4: computes `(base ✶^{1,2,3'}_{3=1'})^*`, or with
/// `same_label` the closure `(base ✶^{1,2,3'}_{3=1', 2=2'})^*`.
///
/// Every result triple is either an original triple `(x, ℓ, z)` or a triple
/// `(x, ℓ, w)` such that `(x, ℓ, z) ∈ base` and `w` is reachable from `z`
/// (in one or more steps) in the edge graph of `base` — for `same_label`,
/// along edges whose middle element is `ℓ` only.
///
/// One BFS runs per distinct root (the endpoint `z`, or the pair `(ℓ, z)`
/// for `same_label`), and the roots are partitioned across `threads`
/// workers (inline at one). Each BFS is independent, so the counters are
/// exact sums and the result is the same at every thread count.
///
/// Checks `cancel` between BFS roots; on cancellation the empty set is
/// returned and the caller is expected to surface the error (the executor
/// re-checks the token after every closure).
pub fn reach_star(
    base: &TripleSet,
    same_label: bool,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let runs = &SubjectRuns::new(base.as_slice());
    // The prefixes `(x, ℓ)` of the base triples, grouped by BFS root: the
    // endpoint `z`, or `(ℓ, z)` for `same_label`.
    let mut by_root: HashMap<Root, Vec<(ObjectId, ObjectId)>> = HashMap::new();
    for t in base.iter() {
        let root = (same_label.then_some(t.p()), t.o());
        by_root.entry(root).or_default().push((t.s(), t.p()));
    }
    let roots: Vec<(Root, Vec<(ObjectId, ObjectId)>)> = by_root.into_iter().collect();
    let tasks: Vec<_> = parallel::chunk(&roots, threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out: Vec<Triple> = Vec::new();
                for ((label, endpoint), prefixes) in morsel {
                    // One BFS per root: check between roots so a cancelled
                    // closure stops mid-morsel instead of finishing it.
                    if cancel.is_cancelled() {
                        break;
                    }
                    let reach = reachable_from(*endpoint, *label, runs, stats);
                    for &(x, l) in prefixes {
                        for &w in &reach {
                            out.push(Triple::new(x, l, w));
                            stats.triples_emitted += 1;
                        }
                    }
                }
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
    // Discard the accumulation outright on cancellation: sorting a partial
    // set the caller is about to throw away only delays the error.
    if cancel.is_cancelled() {
        return TripleSet::new();
    }
    let mut out: Vec<Triple> = Vec::with_capacity(base.len());
    out.extend(base.iter().copied());
    for part in parts {
        out.extend(part);
    }
    TripleSet::from_vec(out)
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
        // `(same_label, edges traversed, triples emitted)`: every BFS
        // expands each node once, its root included, even when the
        // a→b→c→d→a cycle or the x self-loop leads back to the root.
        for threads in [1usize, 2, 4] {
            for (same, edges, emitted) in [(false, 17, 17), (true, 3, 3)] {
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
