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
//! the same bound with per-source BFS over [`Adjacency`] lists, which is also
//! far cheaper in practice on sparse data — the `e5` table of the
//! `trial-bench` `tables` binary compares both against the generic fixpoint
//! engines.
//!
//! The adjacency lists are taken **by reference**: when the starred base is a
//! stored relation, the executor borrows the store's lazily-cached
//! [`trial_core::RelationIndex::adjacency`] lists, so repeated reachability
//! queries over the same relation never rebuild the graph.

use crate::cancel::CancelToken;
use crate::engine::EvalStats;
use crate::parallel;
use std::collections::{HashMap, HashSet, VecDeque};
use trial_core::{Adjacency, ObjectId, Triple, TripleSet};

/// Builds per-label adjacency lists for a base that is not a stored relation
/// (otherwise use the store's cached
/// [`trial_core::RelationIndex::adjacency_by_label`]).
pub fn label_adjacency(base: &TripleSet) -> HashMap<ObjectId, Adjacency> {
    let mut by_label: HashMap<ObjectId, Adjacency> = HashMap::new();
    for t in base.iter() {
        by_label.entry(t.p()).or_default().insert_edge(t.s(), t.o());
    }
    by_label
}

/// Objects reachable from `start` in **one or more** steps of `adj`.
fn reachable_from(start: ObjectId, adj: &Adjacency, stats: &mut EvalStats) -> Vec<ObjectId> {
    let mut seen: HashSet<ObjectId> = HashSet::new();
    let mut queue: VecDeque<ObjectId> = VecDeque::new();
    // Seed with the direct successors so that `start` itself is only included
    // if it lies on a cycle (the closure has no implicit ε step).
    for next in adj.successor_cursor(start) {
        stats.reach_edges_traversed += 1;
        if seen.insert(next) {
            queue.push_back(next);
        }
    }
    while let Some(node) = queue.pop_front() {
        for next in adj.successor_cursor(node) {
            stats.reach_edges_traversed += 1;
            if seen.insert(next) {
                queue.push_back(next);
            }
        }
    }
    let mut out: Vec<ObjectId> = seen.into_iter().collect();
    out.sort_unstable();
    out
}

/// Procedure 3: computes `(base ✶^{1,2,3'}_{3=1'})^*` over the given
/// adjacency lists (which must be the edge graph of `base`).
///
/// Every result triple is either an original triple `(x, ℓ, z)` or a triple
/// `(x, ℓ, w)` such that `(x, ℓ, z) ∈ base` and `w` is reachable from `z`
/// (in one or more steps) in the edge graph of `base`.
///
/// Checks `cancel` between BFS roots; on cancellation the partial set is
/// returned and the caller is expected to surface the error (the executor
/// re-checks the token after every closure).
pub fn reach_star_plain(
    base: &TripleSet,
    adj: &Adjacency,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    // Group the base triples by their endpoint so each BFS is run once per
    // distinct endpoint rather than once per triple.
    let mut by_endpoint: HashMap<ObjectId, Vec<(ObjectId, ObjectId)>> = HashMap::new();
    for t in base.iter() {
        by_endpoint.entry(t.o()).or_default().push((t.s(), t.p()));
    }
    let mut out: Vec<Triple> = Vec::with_capacity(base.len());
    out.extend(base.iter().copied());
    for (endpoint, prefixes) in by_endpoint {
        // Discard the accumulation outright on cancellation: sorting a
        // partial set the caller is about to throw away only delays the
        // error.
        if cancel.is_cancelled() {
            return TripleSet::new();
        }
        let reach = reachable_from(endpoint, adj, stats);
        for &(s, p) in &prefixes {
            for &w in &reach {
                out.push(Triple::new(s, p, w));
                stats.triples_emitted += 1;
            }
        }
    }
    TripleSet::from_vec(out)
}

/// Morsel-parallel [`reach_star_plain`]: the distinct endpoints (one BFS
/// each) are partitioned across workers probing the shared read-only
/// adjacency lists. Each BFS is independent, so edge-traversal counts are
/// exact sums and the result set is identical to the sequential procedure.
pub fn reach_star_plain_parallel(
    base: &TripleSet,
    adj: &Adjacency,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let mut by_endpoint: HashMap<ObjectId, Vec<(ObjectId, ObjectId)>> = HashMap::new();
    for t in base.iter() {
        by_endpoint.entry(t.o()).or_default().push((t.s(), t.p()));
    }
    let entries: Vec<(ObjectId, Vec<(ObjectId, ObjectId)>)> = by_endpoint.into_iter().collect();
    let tasks: Vec<_> = parallel::chunk(&entries, threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out: Vec<Triple> = Vec::new();
                for (endpoint, prefixes) in morsel {
                    // One BFS per root: check between roots so a cancelled
                    // closure stops mid-morsel instead of finishing it.
                    if cancel.is_cancelled() {
                        break;
                    }
                    let reach = reachable_from(*endpoint, adj, stats);
                    for &(s, p) in prefixes {
                        for &w in &reach {
                            out.push(Triple::new(s, p, w));
                            stats.triples_emitted += 1;
                        }
                    }
                }
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
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

/// Procedure 4: computes `(base ✶^{1,2,3'}_{3=1', 2=2'})^*` over per-label
/// adjacency lists (which must be the label-split edge graph of `base`).
///
/// Like [`reach_star_plain`], but reachability is computed separately within
/// each "label" `ℓ` (the middle element): only edges whose middle element
/// equals the original triple's middle element may be followed.
///
/// Checks `cancel` between BFS roots, like [`reach_star_plain`].
pub fn reach_star_same_label(
    base: &TripleSet,
    adj_by_label: &HashMap<ObjectId, Adjacency>,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    // Group base triples by (label, endpoint).
    let mut by_label_endpoint: HashMap<(ObjectId, ObjectId), Vec<ObjectId>> = HashMap::new();
    for t in base.iter() {
        by_label_endpoint
            .entry((t.p(), t.o()))
            .or_default()
            .push(t.s());
    }
    let empty = Adjacency::default();
    let mut out: Vec<Triple> = Vec::with_capacity(base.len());
    out.extend(base.iter().copied());
    for ((label, endpoint), sources) in by_label_endpoint {
        if cancel.is_cancelled() {
            return TripleSet::new();
        }
        let adj = adj_by_label.get(&label).unwrap_or(&empty);
        let reach = reachable_from(endpoint, adj, stats);
        for &s in &sources {
            for &w in &reach {
                out.push(Triple::new(s, label, w));
                stats.triples_emitted += 1;
            }
        }
    }
    TripleSet::from_vec(out)
}

/// Morsel-parallel [`reach_star_same_label`]: partitions the distinct
/// `(label, endpoint)` BFS roots across workers sharing the read-only
/// per-label adjacency lists.
pub fn reach_star_same_label_parallel(
    base: &TripleSet,
    adj_by_label: &HashMap<ObjectId, Adjacency>,
    threads: usize,
    cancel: &CancelToken,
    stats: &mut EvalStats,
) -> TripleSet {
    let mut by_label_endpoint: HashMap<(ObjectId, ObjectId), Vec<ObjectId>> = HashMap::new();
    for t in base.iter() {
        by_label_endpoint
            .entry((t.p(), t.o()))
            .or_default()
            .push(t.s());
    }
    let entries: Vec<((ObjectId, ObjectId), Vec<ObjectId>)> =
        by_label_endpoint.into_iter().collect();
    let empty = Adjacency::default();
    let empty = &empty;
    let tasks: Vec<_> = parallel::chunk(&entries, threads)
        .into_iter()
        .map(|morsel| {
            move |stats: &mut EvalStats| {
                let mut out: Vec<Triple> = Vec::new();
                for ((label, endpoint), sources) in morsel {
                    if cancel.is_cancelled() {
                        break;
                    }
                    let adj = adj_by_label.get(label).unwrap_or(empty);
                    let reach = reachable_from(*endpoint, adj, stats);
                    for &s in sources {
                        for &w in &reach {
                            out.push(Triple::new(s, *label, w));
                            stats.triples_emitted += 1;
                        }
                    }
                }
                out
            }
        })
        .collect();
    let parts = parallel::run_tasks(threads, tasks, cancel, stats);
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
        let adj = Adjacency::from_triples(base.iter());
        reach_star_plain(base, &adj, &CancelToken::none(), stats)
    }

    fn same_label(base: &TripleSet, stats: &mut EvalStats) -> TripleSet {
        let by_label = label_adjacency(base);
        reach_star_same_label(base, &by_label, &CancelToken::none(), stats)
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
    fn cached_store_adjacency_gives_identical_results() {
        let store = labelled_chain();
        let (rel, index) = store.relation_with_index("E").unwrap();
        let mut s1 = EvalStats::new();
        let mut s2 = EvalStats::new();
        assert_eq!(
            reach_star_plain(rel, index.adjacency(rel), &CancelToken::none(), &mut s1),
            plain(&base(&store), &mut s2),
        );
        assert_eq!(
            reach_star_same_label(
                rel,
                index.adjacency_by_label(rel),
                &CancelToken::none(),
                &mut s1
            ),
            same_label(&base(&store), &mut s2),
        );
        assert_eq!(s1.reach_edges_traversed, s2.reach_edges_traversed);
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
    fn parallel_reachability_matches_sequential() {
        let store = labelled_chain();
        let b = base(&store);
        let adj = Adjacency::from_triples(b.iter());
        let by_label = label_adjacency(&b);
        let mut seq = EvalStats::new();
        let plain_seq = reach_star_plain(&b, &adj, &CancelToken::none(), &mut seq);
        let same_seq = reach_star_same_label(&b, &by_label, &CancelToken::none(), &mut seq);
        for threads in [1usize, 2, 4] {
            let mut par = EvalStats::new();
            assert_eq!(
                plain_seq,
                reach_star_plain_parallel(&b, &adj, threads, &CancelToken::none(), &mut par)
            );
            assert_eq!(
                same_seq,
                reach_star_same_label_parallel(
                    &b,
                    &by_label,
                    threads,
                    &CancelToken::none(),
                    &mut par
                )
            );
            // BFS partitioning changes nothing about the work performed.
            assert_eq!(seq.reach_edges_traversed, par.reach_edges_traversed);
            assert_eq!(seq.triples_emitted, par.triples_emitted);
            if threads > 1 {
                assert!(par.parallel_morsels > 0, "morsels must actually run");
            }
        }
        // Empty and singleton bases survive partitioning.
        let empty = TripleSet::new();
        let mut s = EvalStats::new();
        assert!(reach_star_plain_parallel(
            &empty,
            &Adjacency::default(),
            4,
            &CancelToken::none(),
            &mut s
        )
        .is_empty());
        let single: TripleSet = [b.as_slice()[0]].into_iter().collect();
        let adj1 = Adjacency::from_triples(single.iter());
        let mut s1 = EvalStats::new();
        let mut s2 = EvalStats::new();
        assert_eq!(
            reach_star_plain(&single, &adj1, &CancelToken::none(), &mut s1),
            reach_star_plain_parallel(&single, &adj1, 4, &CancelToken::none(), &mut s2)
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
